package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"charles/internal/gen"
	"charles/internal/store"
	"charles/internal/table"
)

// BenchmarkLiveTimelineAnswer times the serve layer's part of the live
// cycle: the first head-relative POST /timeline answer for a head the
// commit pump has just absorbed, so the answer is not yet memoized and the
// new step has never been answered, while every older step has. The chain
// is a 120-row gen.Chain; the answered head sits 4 or 12 steps from the
// root. Each iteration commits a fresh variant of that head (untimed, with
// the pump's engine step), then times the handler.
func BenchmarkLiveTimelineAnswer(b *testing.B) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 120, Steps: 12, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, head := range []int{4, 12} {
		b.Run(fmt.Sprintf("head=%d", head), func(b *testing.B) {
			st, err := store.Open("")
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			srv := NewServer(st, 0)
			ids := make([]string, head)
			parent := ""
			for i := range ids {
				v, err := st.Commit(snaps[i], parent, "step")
				if err != nil {
					b.Fatal(err)
				}
				ids[i], parent = v.ID, v.ID
			}
			answer := func() {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/timeline", strings.NewReader("{}")))
				if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"live": true`) {
					b.Fatalf("live timeline: status %d", rec.Code)
				}
			}
			answer() // builds the live shard and answers every older step
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				next := snaps[head].Clone()
				if err := next.MustColumn("salary").Set(0, table.F(next.MustColumn("salary").Float(0)+float64(i+1)/1024)); err != nil {
					b.Fatal(err)
				}
				v, err := st.Commit(next, ids[head-1], "variant")
				if err != nil {
					b.Fatal(err)
				}
				srv.waitLiveHead(v.ID)
				b.StartTimer()
				answer()
			}
		})
	}
}

// waitLiveHead blocks until the commit pump has moved the default dataset's
// maintained timeline to head.
func (s *Server) waitLiveHead(head string) {
	ls := s.live.lookup(s.defTenant + "/" + s.defDataset)
	for !ls.maintainedAt(head) {
		time.Sleep(100 * time.Microsecond)
	}
}

// maintainedAt reports whether the shard's maintainer is positioned at head.
func (ls *liveShard) maintainedAt(head string) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.maint != nil && ls.maint.Head() == head
}
