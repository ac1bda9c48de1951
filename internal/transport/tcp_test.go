package transport

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// mkHalves builds a linked pair of TCP halves on a two-host network for
// unit-testing internal mechanics.
func mkHalves(seed int64) (*sim.Simulator, *tcpConn, *tcpConn) {
	s := sim.New(seed)
	nw := netsim.New(s)
	a := nw.AddHost("a")
	b := nw.AddHost("b")
	nw.Connect(a, b, netsim.LinkConfig{Rate: 125_000_000, Latency: 10 * sim.Microsecond})
	nw.ComputeRoutes()
	epA := newEndpoint(nw, a)
	epB := newEndpoint(nw, b)
	cfg := DefaultTCPConfig().withDefaults()
	ca := newTCPHalf(nw, epA, epB, cfg)
	cb := newTCPHalf(nw, epB, epA, cfg)
	linkMirror(ca, cb)
	return s, ca, cb
}

func TestHolesAbove(t *testing.T) {
	_, _, cb := mkHalves(1)
	cb.rcvNxt = 100
	cb.ooo.add(200, 300)
	cb.ooo.add(400, 500)

	s, e, ok := cb.holesAbove(0)
	if !ok || s != 100 || e != 200 {
		t.Fatalf("first hole = [%d,%d) ok=%v, want [100,200)", s, e, ok)
	}
	s, e, ok = cb.holesAbove(150)
	if !ok || s != 150 || e != 200 {
		t.Fatalf("mid-hole = [%d,%d) ok=%v, want [150,200)", s, e, ok)
	}
	s, e, ok = cb.holesAbove(250)
	if !ok || s != 300 || e != 400 {
		t.Fatalf("second hole = [%d,%d) ok=%v, want [300,400)", s, e, ok)
	}
	if _, _, ok = cb.holesAbove(500); ok {
		t.Fatal("no holes beyond the highest received byte")
	}
	// No out-of-order data: nothing is known missing.
	cb.ooo = intervalSet{}
	if _, _, ok = cb.holesAbove(0); ok {
		t.Fatal("empty ooo must report no holes")
	}
}

func TestRTOEstimatorRFC6298(t *testing.T) {
	_, ca, _ := mkHalves(2)
	ca.sampleRTT(100 * sim.Millisecond) // less than RTOMin floor logic
	if ca.srtt != 100*sim.Millisecond || ca.rttvar != 50*sim.Millisecond {
		t.Fatalf("first sample: srtt=%v rttvar=%v", ca.srtt, ca.rttvar)
	}
	if ca.rto != 300*sim.Millisecond { // srtt + 4*rttvar
		t.Fatalf("rto=%v, want 300ms", ca.rto)
	}
	ca.sampleRTT(100 * sim.Millisecond) // steady input shrinks variance
	if ca.rttvar >= 50*sim.Millisecond {
		t.Fatalf("rttvar did not shrink: %v", ca.rttvar)
	}
	// The RTOMin floor applies.
	_, cc, _ := mkHalves(3)
	cc.sampleRTT(1 * sim.Millisecond)
	if cc.rto != cc.cfg.RTOMin {
		t.Fatalf("rto=%v, want floor %v", cc.rto, cc.cfg.RTOMin)
	}
}

func TestExponentialBackoffCapped(t *testing.T) {
	_, ca, _ := mkHalves(4)
	ca.rto = 200 * sim.Millisecond
	base := ca.effectiveRTO()
	ca.backoff = 1
	if got := ca.effectiveRTO(); got != 2*base {
		t.Fatalf("backoff 1: %v, want %v", got, 2*base)
	}
	ca.backoff = 20
	if got := ca.effectiveRTO(); got != ca.cfg.RTOMax {
		t.Fatalf("backoff 20: %v, want cap %v", got, ca.cfg.RTOMax)
	}
}

func TestCwndGrowthPhases(t *testing.T) {
	_, ca, _ := mkHalves(5)
	ca.cwnd = 2 * ca.cfg.MSS
	ca.ssthresh = 8 * ca.cfg.MSS
	ca.growCwnd() // slow start: +MSS
	if ca.cwnd != 3*ca.cfg.MSS {
		t.Fatalf("slow start growth wrong: %d", ca.cwnd)
	}
	ca.cwnd = 16 * ca.cfg.MSS // above ssthresh: congestion avoidance
	before := ca.cwnd
	ca.growCwnd()
	if ca.cwnd <= before || ca.cwnd-before > ca.cfg.MSS/8 {
		t.Fatalf("CA growth wrong: %d -> %d", before, ca.cwnd)
	}
	// cwnd never exceeds the receiver window.
	ca.cwnd = ca.cfg.RcvWindow
	ca.growCwnd()
	if ca.cwnd > ca.cfg.RcvWindow {
		t.Fatalf("cwnd exceeded rwnd: %d", ca.cwnd)
	}
}

func TestLimitedTransmitWindow(t *testing.T) {
	_, ca, _ := mkHalves(6)
	ca.cwnd = 4 * ca.cfg.MSS
	base := ca.window()
	ca.dupacks = 1
	if ca.window() != base+ca.cfg.MSS {
		t.Fatal("first dupack should extend window by one MSS")
	}
	ca.dupacks = 5
	if ca.window() != base+2*ca.cfg.MSS {
		t.Fatal("limited transmit caps at two segments")
	}
	ca.inRecovery = true
	if ca.window() != base {
		t.Fatal("no limited transmit during recovery")
	}
}

func TestDelayedAckCoalesces(t *testing.T) {
	s, ca, _ := mkHalves(7)
	ca.Send(Message{Size: 100_000})
	s.Run()
	st := ca.Stats()
	if st.MsgsSent != 1 || st.BytesSent != 100_000 {
		t.Fatalf("stats wrong: %+v", st)
	}
	// ~69 data segments; delayed ACKs should produce roughly half as
	// many ACK packets. Count ACK arrivals by instrumenting drops in
	// the network stats: every egress packet is counted, so compare
	// totals: a->b carries data, b->a carries ACKs.
}

func TestDelAckTimerFlushesOddSegment(t *testing.T) {
	s, ca, cb := mkHalves(8)
	var deliveredAt sim.Time
	cb.SetHandler(func(m Message) { deliveredAt = s.Now() })
	// One segment only: the receiver would wait for a second packet;
	// the delack timer must fire and the sender must finish cleanly
	// (stopTimer on full ack) without a spurious RTO.
	ca.Send(Message{Size: 500})
	s.Run()
	if deliveredAt == 0 {
		t.Fatal("message not delivered")
	}
	if ca.stats.Timeouts != 0 {
		t.Fatalf("spurious RTO: %d", ca.stats.Timeouts)
	}
	// Delivery itself is prompt; only the ACK waits for the timer.
	if deliveredAt > 5*sim.Millisecond {
		t.Fatalf("delivery dragged to %v", deliveredAt)
	}
	// And the sender's stream must be fully acknowledged by the end
	// (the delack timer flushed the ACK).
	if ca.sndUna != ca.streamLen {
		t.Fatalf("stream not fully acked: %d/%d", ca.sndUna, ca.streamLen)
	}
}

func TestSACKRecoveryRetransmitsOnlyHoles(t *testing.T) {
	// Force a hole by simulating: receiver got [0,1460) and
	// [2920, 5840); sender in recovery must retransmit [1460,2920)
	// first, not everything.
	_, ca, cb := mkHalves(9)
	ca.streamLen = 10000
	ca.sndUna = 1460
	ca.sndNxt = 8760
	cb.rcvNxt = 1460
	cb.ooo.add(2920, 5840)
	ca.inRecovery = true
	ca.recoverSeq = 8760
	ca.retxScan = ca.sndUna
	before := ca.stats.Retransmits
	ca.pumpRecovery()
	if ca.stats.Retransmits != before+1 {
		t.Fatalf("retransmits = %d, want exactly 1 hole segment", ca.stats.Retransmits-before)
	}
	if ca.retxScan != 2920 {
		t.Fatalf("retxScan = %d, want 2920 (hole end)", ca.retxScan)
	}
}

func TestGoBackNAfterTimeout(t *testing.T) {
	_, ca, _ := mkHalves(10)
	ca.streamLen = 100_000
	ca.sndUna = 10_000
	ca.sndNxt = 60_000
	ca.timerOn = true
	ca.onTimeout()
	if ca.cwnd != ca.cfg.MSS {
		t.Fatalf("cwnd after RTO = %d, want 1 MSS", ca.cwnd)
	}
	if ca.sndNxt != ca.sndUna+int64(ca.cfg.MSS) {
		t.Fatalf("go-back-N rewind wrong: sndNxt=%d", ca.sndNxt)
	}
	if ca.backoff != 1 || ca.stats.Timeouts != 1 {
		t.Fatalf("backoff/timeout accounting wrong: %d/%d", ca.backoff, ca.stats.Timeouts)
	}
}
