package main

import (
	"errors"
	"fmt"
	"net/http"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestNearestRank(t *testing.T) {
	s := seq(10)
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("nearestRank(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestSummarizeNeedsTenBeyondTail(t *testing.T) {
	// p90 of 99 samples has 9 beyond it: refused. Of 100: 10, accepted.
	if _, err := summarize(seq(99), 0.9); err == nil {
		t.Error("p90 of 99 samples accepted; it has only 9 beyond it")
	}
	q, err := summarize(seq(100), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if q.N != 100 || q.P50 != 50 || q.Tail != 90 {
		t.Errorf("summarize(1..100, p90) = %+v", q)
	}
	// The old loadtest's int(p*(n-1)) index made p99 of 100 samples the
	// 99th value; nearest rank needs 1000 samples before it reports one.
	if _, err := summarize(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
	if q, err := summarize(seq(1000), 0.99); err != nil || q.Tail != 990 {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990", q.Tail, err)
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	in := []float64{3, 1, 2}
	if _, err := summarize(append(in, seq(200)...), 0.9); err != nil {
		t.Fatal(err)
	}
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("input reordered: %v", in)
	}
}

func TestTallyCountsEveryFailureKind(t *testing.T) {
	var tl tally
	tl.record(nil)
	tl.record(errors.New("connection reset"))
	tl.record(&statusError{code: http.StatusTooManyRequests})
	tl.record(&statusError{code: http.StatusInternalServerError, body: "boom"})
	tl.record(fmt.Errorf("op 7: %w", wrongf("distance %d, want %d", 3, 4)))
	if a, f := tl.attempted.Load(), tl.failed.Load(); a != 5 || f != 4 {
		t.Errorf("attempted %d failed %d, want 5 and 4", a, f)
	}
	if tl.refused.Load() != 1 || tl.wrong.Load() != 1 {
		t.Errorf("refused %d wrong %d, want 1 and 1", tl.refused.Load(), tl.wrong.Load())
	}
	if tl.failRatio() != 0.8 {
		t.Errorf("failRatio = %g, want 0.8", tl.failRatio())
	}
	if tl.firstFail != "connection reset" || tl.firstBad == "" {
		t.Errorf("first failure %q, first wrong answer %q", tl.firstFail, tl.firstBad)
	}
}
