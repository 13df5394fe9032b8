package faultinject

// middleware.go adapts the injector to HTTP: a server-side handler wrapper
// driven by one seeded Injector so a chaos run's fault schedule is
// reproducible. Injected failures are shaped like real operational
// failures — a 503 with a structured JSON error body and a Retry-After
// header — so the code under test exercises its production error paths,
// not a synthetic one.

import (
	"fmt"
	"net/http"
	"time"
)

// The responses Handler fabricates for injected faults.
const (
	// faultStatus is the status of an injected failure.
	faultStatus = http.StatusServiceUnavailable
	// faultRetryAfter is the Retry-After advice attached to an injected
	// failure.
	faultRetryAfter = time.Second
	// partialBytes is how many body bytes a partial-response fault lets
	// through before silently dropping the rest.
	partialBytes = 16
)

// Handler wraps next with injected faults keyed by "METHOD path": latency
// stalls the request, a failure short-circuits it with faultStatus, a
// structured JSON error body ({"error":{...},"retry_after_ms":...}) and a
// Retry-After header, and a partial verdict truncates next's response body
// after partialBytes. The injected 5xx body deliberately matches the
// "every error carries a structured body" server invariant so chaos tests
// can assert it uniformly over real and injected failures.
func Handler(next http.Handler, inj *Injector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := inj.Decide(r.Method + " " + r.URL.Path)
		if d.Err != nil {
			retryable := IsTransient(d.Err)
			ra := faultRetryAfter
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int64((ra+time.Second-1)/time.Second)))
			w.Header().Set("X-Fault-Injected", "1")
			w.WriteHeader(faultStatus)
			fmt.Fprintf(w, `{"error":{"code":"FAULT0001","message":%q,"retryable":%t},"retry_after_ms":%d}`,
				d.Err.Error(), retryable, ra.Milliseconds())
			return
		}
		if d.Partial {
			w.Header().Set("X-Fault-Injected", "partial")
			next.ServeHTTP(&truncatingWriter{ResponseWriter: w, remain: partialBytes}, r)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// truncatingWriter passes through the first remain body bytes and discards
// the rest, simulating a connection that died mid-response. Headers and
// status pass through untouched (the lie a half-written response tells).
type truncatingWriter struct {
	http.ResponseWriter
	remain int
}

func (t *truncatingWriter) Write(p []byte) (int, error) {
	if t.remain <= 0 {
		return len(p), nil // swallowed, but report success like a dead socket's buffer
	}
	n := len(p)
	if n > t.remain {
		n = t.remain
	}
	if _, err := t.ResponseWriter.Write(p[:n]); err != nil {
		return 0, err
	}
	t.remain -= n
	return len(p), nil
}
