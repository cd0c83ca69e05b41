package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// minBeyondTail is how many samples must lie above a tail percentile
// before it is reported: fewer, and the "p99" is just the maximum.
const minBeyondTail = 10

// quantiles is a latency distribution reduced to the numbers the benchmark
// reports, with the sample count they rest on.
type quantiles struct {
	N     int
	P50   float64
	Tail  float64 // the TailP percentile
	TailP float64
}

// nearestRank returns the nearest-rank p-percentile (0 < p ≤ 1) of sorted:
// the smallest sample such that at least p·n samples are at or below it.
func nearestRank(sorted []float64, p float64) float64 {
	k := int(math.Ceil(p * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// beyond reports how many of n samples lie strictly above the nearest-rank
// p-percentile's position.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// summarize sorts samples and reports the median and the tailP percentile.
// It refuses (with an error naming the shortfall) when fewer than
// minBeyondTail samples lie beyond the tail percentile.
func summarize(samples []float64, tailP float64) (quantiles, error) {
	n := len(samples)
	if n == 0 {
		return quantiles{}, errors.New("no samples")
	}
	if b := beyond(n, tailP); b < minBeyondTail {
		return quantiles{}, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d",
			tailP*100, minBeyondTail, b, n)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return quantiles{N: n, P50: nearestRank(sorted, 0.5), Tail: nearestRank(sorted, tailP), TailP: tailP}, nil
}

// median is the nearest-rank median of any non-empty sample set (0 when
// empty); used for per-layer figures that carry no tail.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return nearestRank(sorted, 0.5)
}

// wrongAnswer is an operation that completed but returned something other
// than the expected answer.
type wrongAnswer struct{ msg string }

func (w *wrongAnswer) Error() string { return "wrong answer: " + w.msg }

func wrongf(format string, args ...any) error {
	return &wrongAnswer{msg: fmt.Sprintf(format, args...)}
}

// statusError is a completed HTTP exchange with a non-2xx status. A 429 is
// the server refusing the request.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	if e.code == http.StatusTooManyRequests {
		return "refused (429)"
	}
	return fmt.Sprintf("status %d: %s", e.code, e.body)
}

// tally counts attempted and failed operations. Every outcome that is not
// a checked, correct answer is a failure: a transport error, a non-2xx
// status (a 429 included), or a wrong answer. The run goes on after a
// failure; only the counts and the first message of each kind are kept.
type tally struct {
	attempted, failed, wrong, refused atomic.Int64

	mu        sync.Mutex
	firstFail string
	firstBad  string
}

// record counts one attempted operation with its outcome (nil = correct)
// and reports whether it succeeded.
func (t *tally) record(err error) bool {
	t.attempted.Add(1)
	if err == nil {
		return true
	}
	t.failed.Add(1)
	var wa *wrongAnswer
	var se *statusError
	bad := errors.As(err, &wa)
	switch {
	case bad:
		t.wrong.Add(1)
	case errors.As(err, &se) && se.code == http.StatusTooManyRequests:
		t.refused.Add(1)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.firstFail == "" {
		t.firstFail = err.Error()
	}
	if bad && t.firstBad == "" {
		t.firstBad = err.Error()
	}
	return false
}

// failRatio is failed ÷ attempted (0 before any attempt).
func (t *tally) failRatio() float64 {
	a := t.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(t.failed.Load()) / float64(a)
}
