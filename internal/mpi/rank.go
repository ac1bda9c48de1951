package mpi

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/transport"
)

// Request tracks an outstanding nonblocking operation.
type Request struct {
	fut    sim.Future
	isRecv bool
	src    int   // recv: matching source
	tag    int32 // recv: matching tag (AnyTag allowed)
	size   int   // payload size (recv: filled at completion)
	doneAt sim.Time
}

// Done reports whether the operation has completed.
func (q *Request) Done() bool { return q.fut.Done() }

// CompletedAt returns the simulated time at which the operation
// completed; valid once Done reports true. It lets measurement code
// timestamp individual transfers even when waits happen out of order.
func (q *Request) CompletedAt() sim.Time { return q.doneAt }

// complete stamps the completion time and releases waiters.
func (q *Request) complete(s *sim.Simulator) {
	q.doneAt = s.Now()
	q.fut.Complete(s)
}

// inbound is an arrived envelope with no matching posted receive yet.
type inbound struct {
	src     int
	kind    uint8
	tag     int32
	msgSeq  int64
	payload int
}

type dataKey struct {
	src int
	seq int64
}

// Rank is one MPI process.
type Rank struct {
	world *World
	id    int
	proc  *sim.Proc // spawn handle
	p     *sim.Proc // body-side handle, set when the body starts

	sendSeq      int64
	posted       []*Request
	unexpected   []inbound
	pendingRndzv map[int64]*Request   // my msgSeq → send request awaiting CTS
	pendingData  map[dataKey]*Request // (src, msgSeq) → recv awaiting payload
	barrierEpoch int32
}

func newRank(w *World, id int) *Rank {
	return &Rank{
		world:        w,
		id:           id,
		pendingRndzv: make(map[int64]*Request),
		pendingData:  make(map[dataKey]*Request),
	}
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.Size() }

// Now returns the current simulated time.
func (r *Rank) Now() sim.Time { return r.p.Now() }

// Proc returns the rank's simulated process handle, letting collective
// runtimes coordinate rank coroutines through raw sim.Futures (epoch
// gates, join barriers) without routing everything through Requests.
// Valid once the rank body has started.
func (r *Rank) Proc() *sim.Proc { return r.p }

func (r *Rank) conn(peer int) transport.Conn {
	return r.world.Cluster.Fabric.Conn(r.id, peer)
}

// Isend starts a nonblocking send of size payload bytes to dst with tag.
// Eager sends complete immediately (buffered semantics); rendezvous
// sends complete when the clear-to-send arrives and the payload has been
// handed to the transport, mirroring MPI local-completion semantics.
func (r *Rank) Isend(dst int, tag int32, size int) *Request {
	if dst == r.id {
		panic(fmt.Sprintf("mpi: rank %d Isend to self (collectives copy locally)", r.id))
	}
	if size < 0 {
		panic("mpi: negative send size")
	}
	r.p.Sleep(overhead)
	q := &Request{size: size}
	r.sendSeq++
	seq := r.sendSeq
	if size <= r.world.Cluster.EagerThreshold {
		r.conn(dst).Send(transport.Message{
			Kind: kEager, Tag: tag, MsgSeq: seq, Size: envelopeSize + size,
		})
		q.complete(r.world.Cluster.Sim)
		return q
	}
	r.pendingRndzv[seq] = q
	r.conn(dst).Send(transport.Message{
		Kind: kReq, Tag: tag, MsgSeq: seq, Aux: int64(size), Size: envelopeSize,
	})
	return q
}

// Send is the blocking form of Isend.
func (r *Rank) Send(dst int, tag int32, size int) {
	r.Wait(r.Isend(dst, tag, size))
}

// Irecv posts a nonblocking receive matching (src, tag). tag may be
// AnyTag. Wildcard sources are intentionally unsupported: none of the
// paper's algorithms need them.
func (r *Rank) Irecv(src int, tag int32) *Request {
	if src == r.id {
		panic(fmt.Sprintf("mpi: rank %d Irecv from self", r.id))
	}
	r.p.Sleep(overhead)
	q := &Request{isRecv: true, src: src, tag: tag}
	// An already-arrived envelope may satisfy this receive.
	for i, u := range r.unexpected {
		if u.src == src && (tag == AnyTag || u.tag == tag) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			r.satisfy(q, u)
			return q
		}
	}
	r.posted = append(r.posted, q)
	return q
}

// Recv is the blocking form of Irecv; it returns the payload size.
func (r *Rank) Recv(src int, tag int32) int {
	q := r.Irecv(src, tag)
	r.Wait(q)
	return q.size
}

// Wait blocks until the request completes.
func (r *Rank) Wait(q *Request) { r.p.Await(&q.fut) }

// WaitAll blocks until every request completes.
func (r *Rank) WaitAll(qs ...*Request) {
	for _, q := range qs {
		r.p.Await(&q.fut)
	}
}

// WaitAllTimeout blocks until every request completes or until d of
// simulated time has elapsed in total (an absolute deadline across the
// set, not a per-request allowance). It returns true when all
// completed, false on deadline; incomplete requests stay outstanding.
func (r *Rank) WaitAllTimeout(d sim.Time, qs ...*Request) bool {
	deadline := r.Now() + d
	for _, q := range qs {
		if q.fut.Done() {
			continue
		}
		rem := deadline - r.Now()
		if rem <= 0 || !r.p.AwaitTimeout(&q.fut, rem) {
			return false
		}
	}
	return true
}

// CancelRecv withdraws a posted receive that has not matched an
// envelope yet, returning true if it was withdrawn. A receive that
// already matched (eagerly satisfied, or clear-to-send granted) cannot
// be withdrawn — its completion simply goes unobserved — and false is
// returned. Failover uses this to retire an old plan's receives so a
// recovery plan's envelopes cannot match stale postings.
func (r *Rank) CancelRecv(q *Request) bool {
	for i, p := range r.posted {
		if p == q {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			return true
		}
	}
	return false
}

// Sendrecv runs a send and a receive concurrently and waits for both,
// returning the received payload size — the inner step of the paper's
// Algorithm 1.
func (r *Rank) Sendrecv(dst int, stag int32, size int, src int, rtag int32) int {
	rq := r.Irecv(src, rtag)
	sq := r.Isend(dst, stag, size)
	r.Wait(rq)
	r.Wait(sq)
	return rq.size
}

// satisfy resolves a matched receive against an arrived envelope.
// For eager messages the payload is already here; for rendezvous we
// grant the clear-to-send and wait for the payload.
func (r *Rank) satisfy(q *Request, u inbound) {
	switch u.kind {
	case kEager:
		q.size = u.payload
		q.complete(r.world.Cluster.Sim)
	case kReq:
		r.pendingData[dataKey{u.src, u.msgSeq}] = q
		r.conn(u.src).Send(transport.Message{
			Kind: kCTS, MsgSeq: u.msgSeq, Size: envelopeSize,
		})
	default:
		panic(fmt.Sprintf("mpi: unexpected inbound kind %d", u.kind))
	}
}

// onMessage handles a transport delivery from src. It runs in event-loop
// context (never inside a rank coroutine).
func (r *Rank) onMessage(src int, m transport.Message) {
	switch m.Kind {
	case kEager, kBarrier:
		u := inbound{src: src, kind: kEager, tag: m.Tag, msgSeq: m.MsgSeq, payload: m.Size - envelopeSize}
		if q := r.match(src, m.Tag); q != nil {
			r.satisfy(q, u)
		} else {
			r.unexpected = append(r.unexpected, u)
		}
	case kReq:
		u := inbound{src: src, kind: kReq, tag: m.Tag, msgSeq: m.MsgSeq, payload: int(m.Aux)}
		if q := r.match(src, m.Tag); q != nil {
			r.satisfy(q, u)
		} else {
			r.unexpected = append(r.unexpected, u)
		}
	case kCTS:
		q := r.pendingRndzv[m.MsgSeq]
		if q == nil {
			panic(fmt.Sprintf("mpi: rank %d got CTS for unknown msg %d", r.id, m.MsgSeq))
		}
		delete(r.pendingRndzv, m.MsgSeq)
		r.conn(src).Send(transport.Message{
			Kind: kData, MsgSeq: m.MsgSeq, Size: envelopeSize + q.size,
		})
		q.complete(r.world.Cluster.Sim)
	case kData:
		key := dataKey{src, m.MsgSeq}
		q := r.pendingData[key]
		if q == nil {
			panic(fmt.Sprintf("mpi: rank %d got DATA for unknown msg %d from %d", r.id, m.MsgSeq, src))
		}
		delete(r.pendingData, key)
		q.size = m.Size - envelopeSize
		q.complete(r.world.Cluster.Sim)
	default:
		panic(fmt.Sprintf("mpi: unknown message kind %d", m.Kind))
	}
}

// match pops the first posted receive matching (src, tag), or nil.
func (r *Rank) match(src int, tag int32) *Request {
	for i, q := range r.posted {
		if q.src == src && (q.tag == AnyTag || q.tag == tag) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			return q
		}
	}
	return nil
}

// barrierTagFor builds a reserved tag for barrier round k of the current
// epoch. Tags at or above 1<<24 are reserved for the runtime.
func barrierTagFor(epoch int32, k int) int32 {
	return 1<<24 | (epoch&0xFFF)<<8 | int32(k&0xFF)
}

// Barrier executes a dissemination barrier across all ranks.
func (r *Rank) Barrier() {
	n := r.world.Size()
	if n == 1 {
		return
	}
	r.barrierEpoch++
	for k, dist := 0, 1; dist < n; k, dist = k+1, dist*2 {
		dst := (r.id + dist) % n
		src := (r.id - dist + n) % n
		tag := barrierTagFor(r.barrierEpoch, k)
		sq := r.Isend(dst, tag, 1)
		r.Recv(src, tag)
		r.Wait(sq)
	}
}
