package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postTransform drives one /transform request through the handler.
func postTransform(t testing.TB, h http.Handler, req TransformRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/transform", bytes.NewReader(body)).WithContext(context.Background())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

func TestTransformEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	src := `for $b in /collection//book
	        return (insert attribute audited { "yes" } into $b);
	        delete /collection//journal`
	rec := postTransform(t, h, TransformRequest{Update: src, Collection: "library"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp TransformResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Result, `audited="yes"`) {
		t.Fatalf("result missing inserted attribute: %q", resp.Result)
	}
	if strings.Contains(resp.Result, "<journal>") {
		t.Fatalf("result still contains deleted journal: %q", resp.Result)
	}
	if resp.Stats.UpdatesApplied != 3 {
		t.Fatalf("updates_applied = %d, want 3", resp.Stats.UpdatesApplied)
	}
	if resp.Stats.SpineNodes == 0 {
		t.Fatal("spine_nodes not reported")
	}
	if resp.PlanCache != "miss" {
		t.Fatalf("first transform plan_cache = %q, want miss", resp.PlanCache)
	}

	// The stored collection is untouched: /query still sees the journal.
	qrec := post(t, h, QueryRequest{Query: `count(/collection//journal)`, Collection: "library"})
	if qrec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", qrec.Code, qrec.Body.String())
	}
	var qresp QueryResponse
	if err := json.Unmarshal(qrec.Body.Bytes(), &qresp); err != nil {
		t.Fatal(err)
	}
	if qresp.Result != "1" {
		t.Fatalf("collection mutated: count(//journal) = %q after /transform, want 1", qresp.Result)
	}

	// Second identical request: per-tenant plan-cache hit.
	rec = postTransform(t, h, TransformRequest{Update: src, Collection: "library"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp = TransformResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.PlanCache != "hit" {
		t.Fatalf("second transform plan_cache = %q, want hit", resp.PlanCache)
	}
}

func TestTransformErrorTaxonomy(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	cases := []struct {
		name   string
		req    TransformRequest
		status int
		code   string
	}{
		{"missing update", TransformRequest{Collection: "library"},
			http.StatusBadRequest, CodeBadRequest},
		{"missing collection", TransformRequest{Update: `delete //x`},
			http.StatusBadRequest, CodeBadRequest},
		{"unknown collection", TransformRequest{Update: `delete //x`, Collection: "nope"},
			http.StatusNotFound, CodeNoCollection},
		{"static error", TransformRequest{Update: `insert into`, Collection: "library"},
			http.StatusBadRequest, "XPST0003"},
		{"missing target", TransformRequest{Update: `replace /collection/no-such-thing with <x/>`, Collection: "library"},
			http.StatusUnprocessableEntity, CodeNoTarget},
		{"dynamic error", TransformRequest{Update: `rename (/collection//title/text())[1] as "x"`, Collection: "library"},
			http.StatusUnprocessableEntity, "XUTY0012"},
		{"body over MaxBodyBytes", TransformRequest{Update: `delete //x` + strings.Repeat(" ", 2<<20), Collection: "library"},
			http.StatusRequestEntityTooLarge, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postTransform(t, h, tc.req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (%s)", rec.Code, tc.status, rec.Body.String())
			}
			body := decodeError(t, rec)
			if body.Error.Code != tc.code {
				t.Fatalf("code = %q, want %q (%s)", body.Error.Code, tc.code, body.Error.Message)
			}
		})
	}
}

func TestTransformLimitsAndStats(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	// A transform that blows the (clamped) step budget trips a LOPS code.
	rec := postTransform(t, h, TransformRequest{
		Update:     `for $i in 1 to 1000000 return delete /collection//no-such`,
		Collection: "library",
		MaxSteps:   50,
	})
	if rec.Code == http.StatusOK {
		t.Fatalf("expected limit trip, got 200: %s", rec.Body.String())
	}
	body := decodeError(t, rec)
	if !strings.HasPrefix(body.Error.Code, "LOPS") {
		t.Fatalf("code = %q, want a LOPS budget code", body.Error.Code)
	}

	// /stats reports the transform counters.
	ok := postTransform(t, h, TransformRequest{
		Update: `insert <x/> into (/collection//book)[1]`, Collection: "library"})
	if ok.Code != http.StatusOK {
		t.Fatalf("status %d: %s", ok.Code, ok.Body.String())
	}
	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, httptest.NewRequest("GET", "/stats", nil))
	var stats struct {
		Transform struct {
			OK             int64 `json:"ok"`
			Errors         int64 `json:"errors"`
			UpdatesApplied int64 `json:"total_updates_applied"`
			SpineNodes     int64 `json:"total_spine_nodes"`
		} `json:"transform"`
	}
	if err := json.Unmarshal(srec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if stats.Transform.OK != 1 {
		t.Fatalf("stats transform.ok = %d, want 1", stats.Transform.OK)
	}
	if stats.Transform.Errors == 0 {
		t.Fatal("stats transform.errors = 0, want >0 (the limit trip)")
	}
	if stats.Transform.UpdatesApplied != 1 || stats.Transform.SpineNodes == 0 {
		t.Fatalf("stats transform totals = %+v, want updates_applied 1 and spine_nodes > 0", stats.Transform)
	}
}
