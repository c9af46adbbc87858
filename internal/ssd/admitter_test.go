package ssd

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// admitAll replays reqs through a fresh admitter of the given queue depth.
func admitAll(qd int, s Server, reqs []trace.Request) (FrontendStats, error) {
	a := NewAdmitter(qd)
	for _, r := range reqs {
		if _, err := a.Admit(s, r); err != nil {
			return a.Stats(), err
		}
	}
	return a.Stats(), nil
}

// TestFrontendZeroRequests pins the empty-replay edge: zero stats and a
// zero (not NaN) mean depth, in every admission mode.
func TestFrontendZeroRequests(t *testing.T) {
	for _, qd := range []int{0, 1, 4} {
		sched := NewScheduler(1, 1)
		srv := &fakeServer{s: sched, lat: tProg}
		st, err := admitAll(qd, srv, nil)
		if err != nil {
			t.Fatalf("qd=%d: %v", qd, err)
		}
		if st != (FrontendStats{}) {
			t.Fatalf("qd=%d: empty replay stats = %+v", qd, st)
		}
		if got := st.MeanDepth(); got != 0 || math.IsNaN(got) {
			t.Fatalf("qd=%d: empty replay MeanDepth = %v", qd, got)
		}
		if sched.Now() != 0 {
			t.Fatalf("qd=%d: empty replay advanced the clock to %v", qd, sched.Now())
		}
	}
}

// TestFrontendOpenLoopDepthStats pins the open-loop depth accounting on a
// simultaneous burst: request i is admitted with i earlier requests still
// in flight, so the depths are exactly 1..n.
func TestFrontendOpenLoopDepthStats(t *testing.T) {
	const n = 8
	sched := NewScheduler(1, 1)
	srv := &fakeServer{s: sched, lat: tProg}
	reqs := make([]trace.Request, n)
	for i := range reqs {
		reqs[i] = trace.Request{Offset: int64(i) * 4096, Length: 4096}
	}
	st, err := admitAll(0, srv, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != n || st.MaxDepth != n {
		t.Fatalf("open-loop burst stats = %+v, want admitted=maxdepth=%d", st, n)
	}
	if want := int64(n * (n + 1) / 2); st.DepthSum != want {
		t.Fatalf("open-loop DepthSum = %d, want 1+…+%d = %d", st.DepthSum, n, want)
	}
	if want := float64(n+1) / 2; st.MeanDepth() != want {
		t.Fatalf("open-loop MeanDepth = %v, want %v", st.MeanDepth(), want)
	}
}

// TestFrontendNegativeDepthIsOpenLoop pins the documented contract that a
// non-positive queue depth selects open loop rather than some undefined
// closed loop.
func TestFrontendNegativeDepthIsOpenLoop(t *testing.T) {
	mk := func() []trace.Request {
		reqs := make([]trace.Request, 6)
		for i := range reqs {
			reqs[i] = trace.Request{Offset: int64(i) * 4096, Length: 4096}
		}
		return reqs
	}
	schedNeg := NewScheduler(2, 2)
	stNeg, err := admitAll(-3, &fakeServer{s: schedNeg, lat: tProg}, mk())
	if err != nil {
		t.Fatal(err)
	}
	schedOpen := NewScheduler(2, 2)
	stOpen, err := admitAll(0, &fakeServer{s: schedOpen, lat: tProg}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if stNeg != stOpen || schedNeg.Now() != schedOpen.Now() {
		t.Fatalf("negative depth diverges from open loop: %+v vs %+v", stNeg, stOpen)
	}
}

// TestFrontendClosedLoopMeanDepth pins that a saturating QD1 replay sits at
// depth exactly 1 for every admission.
func TestFrontendClosedLoopMeanDepth(t *testing.T) {
	sched := NewScheduler(1, 1)
	srv := &fakeServer{s: sched, lat: tProg}
	reqs := make([]trace.Request, 10)
	for i := range reqs {
		reqs[i] = trace.Request{Offset: int64(i) * 4096, Length: 4096}
	}
	st, err := admitAll(1, srv, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxDepth != 1 || st.MeanDepth() != 1 {
		t.Fatalf("QD1 depth stats = %+v (mean %v), want constant 1", st, st.MeanDepth())
	}
}

// TestAdmitterOccupy pins the depth-1 seed: with the single slot occupied
// until t, the first request is admitted at max(arrival, t) and the seed is
// not counted as an admission.
func TestAdmitterOccupy(t *testing.T) {
	sched := NewScheduler(1, 1)
	srv := &fakeServer{s: sched, lat: tProg}
	a := NewAdmitter(1)
	a.Occupy(3 * tProg)
	complete, err := a.Admit(srv, trace.Request{Arrival: int64(tProg), Length: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * tProg; complete != want {
		t.Fatalf("first request completed at %v, want %v (admitted when the occupied slot frees)", complete, want)
	}
	if st := a.Stats(); st != (FrontendStats{Admitted: 1, MaxDepth: 1, DepthSum: 1}) {
		t.Fatalf("stats after one admission = %+v", st)
	}
}
