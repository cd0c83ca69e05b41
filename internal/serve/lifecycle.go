package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// Serve runs srv on ln until ctx is cancelled (typically by SIGTERM via
// signal.NotifyContext), then drains gracefully: no new connections are
// accepted, in-flight requests get up to drainTimeout to finish, and only
// then are the stragglers' request contexts cancelled and their connections
// force-closed; Serve returns only after every handler has ended. It sets
// srv's BaseContext and ConnState. The return value is nil for a clean
// lifecycle — http.ErrServerClosed is the *expected* way a drained server's
// Serve loop ends, not a failure — and non-nil only for a real serve error
// (bad listener, accept failure) or a drain that had to force-close
// connections.
func Serve(ctx context.Context, srv *http.Server, ln net.Listener, drainTimeout time.Duration) error {
	// Base every request on a context the lifecycle owns: it stays alive
	// through the graceful drain window (cancelling it at SIGTERM would
	// abort the very requests the drain exists to finish) and is cancelled
	// only when the drain deadline expires, so handlers stuck in
	// context-aware work (timeline walks, history pools) stop instead of
	// leaking past the force-close.
	reqCtx, cancelReqs := context.WithCancel(context.Background()) //lint:allow ctxflow BaseContext must outlive ctx through the drain window; deriving from ctx would abort draining requests at SIGTERM
	defer cancelReqs()
	srv.BaseContext = func(net.Listener) context.Context { return reqCtx }
	var open atomic.Int64 // connections whose goroutines still run
	srv.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// Serve ended before any shutdown was requested: a real error.
		return err
	case <-ctx.Done():
	}

	// Tell the handler shutdown has begun before Shutdown starts waiting:
	// long-lived subscription handlers (/timeline/watch SSE streams and
	// blocked long-polls) would otherwise hold their connections — and
	// limiter slots — until the drain deadline force-closed them.
	if d, ok := srv.Handler.(interface{ BeginDrain() }); ok {
		d.BeginDrain()
	}

	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout) //lint:allow ctxflow the drain deadline must keep running after ctx (the SIGTERM context) is already cancelled
	defer cancel()
	err := srv.Shutdown(dctx)
	// Shutdown can close a kept-alive connection it sees idle just after
	// that connection read its next request; the handler then runs after
	// Shutdown has returned. Wait for it too.
	for err == nil && open.Load() > 0 {
		select {
		case <-dctx.Done():
			err = dctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// Drain deadline hit: cancel the stragglers' contexts and cut the
		// connections. Still report the deadline error — requests were
		// aborted, the operator should know the drain window was too tight.
		cancelReqs()
		_ = srv.Close()
	}
	// The Serve goroutine returns ErrServerClosed once Shutdown/Close has
	// begun; that is the clean path, not an error.
	if serr := <-errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
