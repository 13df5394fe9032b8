package server

// wire_test.go pins the /query and /transform wire format as literals
// captured from the commit before the two handlers were folded into one
// request pipeline (PR 14): status, Content-Type, Retry-After and the JSON
// body, with only the run-dependent numbers masked. "Wire format unchanged"
// is therefore checked against the parent commit, not against the pipeline
// itself. Regenerate with WIRE_PRINT=1 (prints the observed rows instead of
// comparing) only for a deliberate wire change.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"lopsided/internal/server/store"
)

// wireRow is one pinned exchange.
type wireRow struct {
	name, path, body string
	status           int
	retryAfter       string
	want             string
}

// wireMask matches what legitimately varies between runs: the wall time,
// and where and after how many steps a wall-clock budget happened to trip.
var wireMask = regexp.MustCompile(`"wall_ms":[0-9.e+-]+|\[LOPS0001\] \d+:\d+: evaluation wall-clock budget exhausted after \d+ steps`)

func maskWire(s string) string {
	return wireMask.ReplaceAllStringFunc(s, func(m string) string {
		if strings.HasPrefix(m, "[LOPS0001]") {
			return "[LOPS0001] L:C: evaluation wall-clock budget exhausted after N steps"
		}
		return `"wall_ms":0`
	})
}

// wireDo sends one raw body and returns the recorder.
func wireDo(h http.Handler, ctx context.Context, method, path, body string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

func checkWire(t *testing.T, h http.Handler, ctx context.Context, rows []wireRow) {
	t.Helper()
	for _, row := range rows {
		method := "POST"
		if row.body == "GET" {
			method = "GET"
		}
		rec := wireDo(h, ctx, method, row.path, row.body)
		got := maskWire(strings.TrimSuffix(rec.Body.String(), "\n"))
		if os.Getenv("WIRE_PRINT") != "" {
			fmt.Printf("\t\t{%q, %q, `%s`, %d, %q,\n\t\t\t`%s`},\n",
				row.name, row.path, row.body, rec.Code, rec.Header().Get("Retry-After"), got)
			continue
		}
		if rec.Code != row.status {
			t.Errorf("%s %s: status = %d, want %d (%s)", row.path, row.name, rec.Code, row.status, got)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type = %q", row.path, row.name, ct)
		}
		if ra := rec.Header().Get("Retry-After"); ra != row.retryAfter {
			t.Errorf("%s %s: Retry-After = %q, want %q", row.path, row.name, ra, row.retryAfter)
		}
		if got != row.want {
			t.Errorf("%s %s: body\n got %s\nwant %s", row.path, row.name, got, row.want)
		}
	}
}

// TestWireFormatPinned covers everything that needs no admission pressure.
// Row order matters: the miss/hit rows depend on what ran before them.
func TestWireFormatPinned(t *testing.T) {
	s := newTestServer(t, Config{})
	checkWire(t, s.Handler(), context.Background(), []wireRow{
		{"success with collection (miss)", "/query", `{"query":"count(/collection//book)","collection":"library"}`, 200, "",
			`{"result":"2","collection":"library","tenant":"default","plan_cache":"miss","stats":{"steps":2,"nodes":0,"output_bytes":0,"wall_ms":0}}`},
		{"same again (hit)", "/query", `{"query":"count(/collection//book)","collection":"library"}`, 200, "",
			`{"result":"2","collection":"library","tenant":"default","plan_cache":"hit","stats":{"steps":2,"nodes":0,"output_bytes":0,"wall_ms":0}}`},
		{"named tenant (miss again)", "/query", `{"query":"count(/collection//book)","collection":"library","tenant":"acme"}`, 200, "",
			`{"result":"2","collection":"library","tenant":"acme","plan_cache":"miss","stats":{"steps":2,"nodes":0,"output_bytes":0,"wall_ms":0}}`},
		{"success without collection", "/query", `{"query":"<a>{sum(1 to 10)}</a>"}`, 200, "",
			`{"result":"\u003ca\u003e55\u003c/a\u003e","tenant":"default","plan_cache":"miss","stats":{"steps":15,"nodes":2,"output_bytes":2,"wall_ms":0}}`},
		{"missing source field", "/query", `{"collection":"library"}`, 400, "",
			`{"error":{"code":"SRV0006","message":"missing \"query\"","retryable":false}}`},
		{"unknown collection", "/query", `{"query":"1","collection":"nope"}`, 404, "",
			`{"error":{"code":"SRV0005","message":"unknown collection \"nope\" (have [awb library])","retryable":false}}`},
		{"bad JSON", "/query", `this is not json`, 400, "",
			`{"error":{"code":"SRV0006","message":"bad request body: invalid character 'h' in literal true (expecting 'r')","retryable":false}}`},
		{"mistyped hint", "/query", `{"query":"1","timeout_ms":"5"}`, 400, "",
			`{"error":{"code":"SRV0006","message":"bad request body: json: cannot unmarshal string into Go struct field QueryRequest.timeout_ms of type int64","retryable":false}}`},
		{"GET", "/query", `GET`, 405, "",
			`{"error":{"code":"SRV0006","message":"POST only","retryable":false}}`},
		{"static error", "/query", `{"query":"for $x in"}`, 400, "",
			`{"error":{"code":"XPST0003","message":"[XPST0003] 1:10: unexpected end of input \"\" in expression","retryable":false}}`},
		{"static error again (cached)", "/query", `{"query":"for $x in"}`, 400, "",
			`{"error":{"code":"XPST0003","message":"[XPST0003] 1:10: unexpected end of input \"\" in expression","retryable":false}}`},
		{"static type error", "/query", `{"query":"1 * \"a\""}`, 400, "",
			`{"error":{"code":"XPTY0004","message":"[XPTY0004] 1:3: arithmetic operator * on a non-numeric operand","retryable":false}}`},
		{"dynamic error", "/query", `{"query":"fn:error()"}`, 422, "",
			`{"error":{"code":"FOER0000","message":"[FOER0000] 1:1: ","retryable":false}}`},
		{"LOPS0002 by steps", "/query", `{"query":"count(for $i in 1 to 1000000 return ())","max_steps":1000}`, 422, "",
			`{"error":{"code":"LOPS0002","message":"[LOPS0002] 1:19: evaluation step budget (1000) exhausted","retryable":false}}`},
		{"update source sent to /query", "/query", `{"query":"delete //journal","collection":"library"}`, 200, "",
			`{"result":"","collection":"library","tenant":"default","plan_cache":"miss","stats":{"steps":1,"nodes":0,"output_bytes":0,"wall_ms":0}}`},

		{"success (miss)", "/transform", `{"update":"delete /collection//journal","collection":"awb"}`, 200, "",
			`{"result":"\u003ccollection name=\"awb\"\u003e\u003cdoc name=\"model\"\u003e\u003cawb\u003e\u003csystem name=\"crm\"/\u003e\u003csystem name=\"erp\"/\u003e\u003csystem name=\"hr\"/\u003e\u003c/awb\u003e\u003c/doc\u003e\u003c/collection\u003e","collection":"awb","tenant":"default","plan_cache":"miss","stats":{"steps":1,"nodes":0,"output_bytes":0,"updates_applied":0,"spine_nodes":0,"wall_ms":0}}`},
		{"same again (hit)", "/transform", `{"update":"delete /collection//journal","collection":"awb"}`, 200, "",
			`{"result":"\u003ccollection name=\"awb\"\u003e\u003cdoc name=\"model\"\u003e\u003cawb\u003e\u003csystem name=\"crm\"/\u003e\u003csystem name=\"erp\"/\u003e\u003csystem name=\"hr\"/\u003e\u003c/awb\u003e\u003c/doc\u003e\u003c/collection\u003e","collection":"awb","tenant":"default","plan_cache":"hit","stats":{"steps":1,"nodes":0,"output_bytes":0,"updates_applied":0,"spine_nodes":0,"wall_ms":0}}`},
		{"named tenant (miss again)", "/transform", `{"update":"insert attribute seen {\"1\"} into /collection/doc/awb/system[1]","collection":"awb","tenant":"acme"}`, 200, "",
			`{"result":"\u003ccollection name=\"awb\"\u003e\u003cdoc name=\"model\"\u003e\u003cawb\u003e\u003csystem name=\"crm\" seen=\"1\"/\u003e\u003csystem name=\"erp\"/\u003e\u003csystem name=\"hr\"/\u003e\u003c/awb\u003e\u003c/doc\u003e\u003c/collection\u003e","collection":"awb","tenant":"acme","plan_cache":"miss","stats":{"steps":6,"nodes":2,"output_bytes":1,"updates_applied":1,"spine_nodes":3,"wall_ms":0}}`},
		{"same text as the query above (own plan, miss)", "/transform", `{"update":"delete //journal","collection":"library"}`, 200, "",
			`{"result":"\u003ccollection name=\"library\"\u003e\u003cdoc name=\"books\"\u003e\u003clib\u003e\u003cbook year=\"2005\"\u003e\u003ctitle\u003eLopsided Little Languages\u003c/title\u003e\u003cauthor\u003eBloom\u003c/author\u003e\u003c/book\u003e\u003cbook year=\"2002\"\u003e\u003ctitle\u003eXQuery from the Experts\u003c/title\u003e\u003cauthor\u003eKatz\u003c/author\u003e\u003c/book\u003e\u003c/lib\u003e\u003c/doc\u003e\u003cdoc name=\"journals\"\u003e\u003clib/\u003e\u003c/doc\u003e\u003c/collection\u003e","collection":"library","tenant":"default","plan_cache":"miss","stats":{"steps":1,"nodes":0,"output_bytes":0,"updates_applied":1,"spine_nodes":3,"wall_ms":0}}`},
		{"missing source field", "/transform", `{"collection":"library"}`, 400, "",
			`{"error":{"code":"SRV0006","message":"missing \"update\"","retryable":false}}`},
		{"missing collection", "/transform", `{"update":"delete //x"}`, 400, "",
			`{"error":{"code":"SRV0006","message":"missing \"collection\": an update program needs a tree to transform","retryable":false}}`},
		{"unknown collection", "/transform", `{"update":"delete //x","collection":"nope"}`, 404, "",
			`{"error":{"code":"SRV0005","message":"unknown collection \"nope\" (have [awb library])","retryable":false}}`},
		{"bad JSON", "/transform", `this is not json`, 400, "",
			`{"error":{"code":"SRV0006","message":"bad request body: invalid character 'h' in literal true (expecting 'r')","retryable":false}}`},
		{"mistyped hint", "/transform", `{"update":"delete //x","collection":"awb","max_steps":"5"}`, 400, "",
			`{"error":{"code":"SRV0006","message":"bad request body: json: cannot unmarshal string into Go struct field TransformRequest.max_steps of type int64","retryable":false}}`},
		{"GET", "/transform", `GET`, 405, "",
			`{"error":{"code":"SRV0006","message":"POST only","retryable":false}}`},
		{"static error", "/transform", `{"update":"insert into","collection":"library"}`, 400, "",
			`{"error":{"code":"XPST0003","message":"[XPST0003] 1:12: expected 'into', 'before' or 'after' in insert statement, found end of input \"\"","retryable":false}}`},
		{"dynamic error", "/transform", `{"update":"rename (/collection//title/text())[1] as \"x\"","collection":"library"}`, 422, "",
			`{"error":{"code":"XUTY0012","message":"[XUTY0012] 1:1: rename target is a text(), not an element, attribute or processing instruction","retryable":false}}`},
		{"XUDY0027", "/transform", `{"update":"replace /collection/no-such-thing with <x/>","collection":"library"}`, 422, "",
			`{"error":{"code":"SRV0010","message":"[XUDY0027] 1:1: replace target is an empty sequence","retryable":false}}`},
		{"LOPS0002 by steps", "/transform", `{"update":"for $i in 1 to 1000000 return delete /collection//no-such","collection":"library","max_steps":50}`, 422, "",
			`{"error":{"code":"LOPS0002","message":"[LOPS0002] 1:13: evaluation step budget (50) exhausted","retryable":false}}`},
	})
}

// TestWireFormatTimeout pins LOPS0001 on both endpoints: the clamped
// Limits.Timeout cuts an endless evaluation.
func TestWireFormatTimeout(t *testing.T) {
	cfg := Config{}
	cfg.DefaultLimits = limitsWithSteps(4_000_000_000)
	cfg.MaxLimits = limitsWithSteps(4_000_000_000)
	cfg.DefaultLimits.Timeout = 20 * time.Millisecond
	cfg.MaxLimits.Timeout = 20 * time.Millisecond
	s := newTestServer(t, cfg)
	checkWire(t, s.Handler(), context.Background(), []wireRow{
		{"LOPS0001 by timeout", "/query", `{"query":"count(for $i in 1 to 40000, $j in 1 to 40000 return ())"}`, 408, "",
			`{"error":{"code":"LOPS0001","message":"[LOPS0001] L:C: evaluation wall-clock budget exhausted after N steps","retryable":true}}`},
		{"LOPS0001 by timeout", "/transform", `{"update":"for $i in 1 to 40000 return for $j in 1 to 40000 return delete /collection//no-such","collection":"awb"}`, 408, "",
			`{"error":{"code":"LOPS0001","message":"[LOPS0001] L:C: evaluation wall-clock budget exhausted after N steps","retryable":true}}`},
	})
}

// TestWireFormatNotReadyAndDraining pins the two whole-daemon refusals.
func TestWireFormatNotReadyAndDraining(t *testing.T) {
	unready := NewWithStore(&store.Store{}, Config{})
	checkWire(t, unready.Handler(), context.Background(), []wireRow{
		{"store not ready", "/query", `{"query":"1"}`, 503, "1",
			`{"error":{"code":"SRV0008","message":"store not loaded","retryable":true},"retry_after_ms":1000}`},
		{"store not ready", "/transform", `{"update":"delete //x","collection":"awb"}`, 503, "1",
			`{"error":{"code":"SRV0008","message":"store not loaded","retryable":true},"retry_after_ms":1000}`},
	})
	s := newTestServer(t, Config{})
	s.BeginDrain()
	checkWire(t, s.Handler(), context.Background(), []wireRow{
		{"draining", "/query", `{"query":"1"}`, 503, "1",
			`{"error":{"code":"SRV0002","message":"daemon is draining; retry against another replica","retryable":true},"retry_after_ms":1000}`},
		{"draining", "/transform", `{"update":"delete //x","collection":"awb"}`, 503, "1",
			`{"error":{"code":"SRV0002","message":"daemon is draining; retry against another replica","retryable":true},"retry_after_ms":1000}`},
	})
}

// holdOnlySlot builds a one-slot daemon whose slot is held by an endless
// /query until the returned release is called. Nothing ever completes
// meanwhile, so the latency estimate stays zero and every rejection's retry
// advice is the 1s floor.
func holdOnlySlot(t *testing.T, maxWait time.Duration) (s *Server, h http.Handler, release func()) {
	t.Helper()
	cfg := Config{MaxConcurrent: 1, MaxQueue: 2, MaxWait: maxWait}
	cfg.DefaultLimits = limitsWithSteps(4_000_000_000)
	cfg.MaxLimits = limitsWithSteps(4_000_000_000)
	s = newTestServer(t, cfg)
	h = s.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wireDo(h, ctx, "POST", "/query", `{"query":"`+endlessQuery+`","timeout_ms":60000}`)
	}()
	waitForInFlight(t, s, 1)
	return s, h, func() { cancel(); wg.Wait() }
}

// TestWireFormatAdmissionRejections pins the four rejections that need a
// saturated admission controller (draining is above).
func TestWireFormatAdmissionRejections(t *testing.T) {
	// Queue empty: a waiter gives up after MaxWait; a deadline that cannot
	// survive the queue is refused before queueing.
	_, h, release := holdOnlySlot(t, 30*time.Millisecond)
	checkWire(t, h, context.Background(), []wireRow{
		{"wait timeout", "/query", `{"query":"1"}`, 503, "1",
			`{"error":{"code":"SRV0001","message":"gave up waiting for an evaluation slot","retryable":true},"retry_after_ms":1000}`},
		{"wait timeout", "/transform", `{"update":"delete //x","collection":"awb"}`, 503, "1",
			`{"error":{"code":"SRV0001","message":"gave up waiting for an evaluation slot","retryable":true},"retry_after_ms":1000}`},
	})
	tight, cancelTight := context.WithTimeout(context.Background(), time.Millisecond)
	checkWire(t, h, tight, []wireRow{
		{"deadline", "/query", `{"query":"1"}`, 503, "1",
			`{"error":{"code":"SRV0003","message":"deadline too tight to survive the admission queue","retryable":true},"retry_after_ms":1000}`},
		{"deadline", "/transform", `{"update":"delete //x","collection":"awb"}`, 503, "1",
			`{"error":{"code":"SRV0003","message":"deadline too tight to survive the admission queue","retryable":true},"retry_after_ms":1000}`},
	})
	cancelTight()
	release()

	// Parked waiters (MaxWait far beyond the test) fill the queue of two.
	s, h, release := holdOnlySlot(t, time.Minute)
	park := func(n int) (unpark func()) {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wireDo(h, ctx, "POST", "/query", `{"query":"1"}`)
			}()
		}
		waitForQueueDepth(t, s.Metrics(), int64(n))
		return func() { cancel(); wg.Wait() }
	}
	// One waiter: depth 2 of 2 is past the shed point (1) for batch work.
	unpark := park(1)
	checkWire(t, h, context.Background(), []wireRow{
		{"degraded", "/query", `{"query":"1","class":"batch"}`, 503, "1",
			`{"error":{"code":"SRV0004","message":"degraded mode: batch-class work is shedding first","retryable":true},"retry_after_ms":1000}`},
		{"degraded", "/transform", `{"update":"delete //x","collection":"awb","class":"batch"}`, 503, "1",
			`{"error":{"code":"SRV0004","message":"degraded mode: batch-class work is shedding first","retryable":true},"retry_after_ms":1000}`},
	})
	unpark()
	// Two waiters: the queue is full for everyone.
	unpark = park(2)
	checkWire(t, h, context.Background(), []wireRow{
		{"queue full", "/query", `{"query":"1"}`, 503, "1",
			`{"error":{"code":"SRV0001","message":"admission queue full","retryable":true},"retry_after_ms":1000}`},
		{"queue full", "/transform", `{"update":"delete //x","collection":"awb"}`, 503, "1",
			`{"error":{"code":"SRV0001","message":"admission queue full","retryable":true},"retry_after_ms":1000}`},
	})
	unpark()
	release()
}

// TestWireFormatOversizedBody is the one deliberate departure from the
// parent, which answered a body past MaxBodyBytes with 400 "bad request
// body: unexpected EOF": the overflow byte the decoder's reader allows for
// is now checked, and the answer names the limit.
func TestWireFormatOversizedBody(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 64})
	pad := strings.Repeat(" ", 64)
	const want = `{"error":{"code":"SRV0006","message":"request body exceeds 64 bytes","retryable":false}}`
	checkWire(t, s.Handler(), context.Background(), []wireRow{
		{"oversized, ends mid-value", "/query", `{"query":"1` + pad, 413, "", want},
		{"oversized, complete value", "/query", `{"query":"1"` + pad + `}`, 413, "", want},
		{"oversized", "/transform", `{"update":"delete //x","collection":"awb"` + pad + `}`, 413, "", want},
		{"exactly at the bound", "/query", `{"query":"1"}` + pad[:64-len(`{"query":"1"}`)], 200, "",
			`{"result":"1","tenant":"default","plan_cache":"miss","stats":{"steps":1,"nodes":0,"output_bytes":0,"wall_ms":0}}`},
	})
	if got := s.Metrics().BadRequests.Load(); got != 3 {
		t.Errorf("server_bad_requests = %d, want 3", got)
	}
}
