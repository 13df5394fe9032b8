package server

// errors.go is the daemon's wire-level error contract: every non-2xx
// response — engine failure, admission rejection, bad request, even a
// contained panic — carries the same structured JSON body, and every
// rejection that is worth retrying carries both a Retry-After header and a
// machine-readable retry_after_ms. The chaos suite's core invariant ("no
// 5xx without a structured body, no rejection without retry advice") is
// enforced by routing every error through writeError.
//
// Server-originated errors get their own SRV* code namespace beside the
// engine's XP*/XQ*/FO*/LOPS* codes:
//
//	SRV0001  queue full               503, retryable
//	SRV0002  draining                 503, retryable (against another replica)
//	SRV0003  deadline too tight       503, retryable with a looser deadline
//	SRV0004  shed (degraded mode)     503, retryable
//	SRV0005  unknown collection       404
//	SRV0006  malformed request        400
//	SRV0007  reload failed            500, retryable
//	SRV0008  store not ready          503, retryable
//	SRV0009  contained handler panic  500
//	SRV0010  update target missing    422 (the update program ran but its
//	         target path names nothing in the collection tree; XUDY0027
//	         underneath)

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"lopsided/internal/cliutil"
	"lopsided/internal/xquery/interp"
	"lopsided/xq"
)

// Server error codes (see the file comment for the table).
const (
	CodeQueueFull    = "SRV0001"
	CodeDraining     = "SRV0002"
	CodeDeadline     = "SRV0003"
	CodeShed         = "SRV0004"
	CodeNoCollection = "SRV0005"
	CodeBadRequest   = "SRV0006"
	CodeReloadFailed = "SRV0007"
	CodeNotReady     = "SRV0008"
	CodeHandlerPanic = "SRV0009"
	CodeNoTarget     = "SRV0010"
)

// ErrorBody is the JSON shape of every error response.
type ErrorBody struct {
	Error struct {
		// Code is an SRV* server code or an engine XQuery/LOPS code.
		Code string `json:"code"`
		// Message is the human-readable diagnostic.
		Message string `json:"message"`
		// Retryable reports whether the same request can reasonably be
		// retried (after retry_after_ms, when present).
		Retryable bool `json:"retryable"`
	} `json:"error"`
	// RetryAfterMs mirrors the Retry-After header with millisecond
	// precision; 0 when retrying is pointless.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// writeError emits the structured error response: JSON body always, plus a
// Retry-After header (in whole seconds, rounded up, minimum 1) whenever
// retryAfter > 0.
func writeError(w http.ResponseWriter, status int, code, msg string, retryable bool, retryAfter time.Duration) {
	var body ErrorBody
	body.Error.Code = code
	body.Error.Message = msg
	body.Error.Retryable = retryable
	if retryAfter > 0 {
		body.RetryAfterMs = retryAfter.Milliseconds()
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// engineErrorStatus maps an engine evaluation/compilation error onto an
// HTTP status via the cliutil exit-code taxonomy:
//
//	static (3)  → 400: the query itself is malformed
//	dynamic (4) → 422: the query ran and failed
//	limit (5)   → 408 for the wall-clock/cancellation budget (LOPS0001),
//	              422 for the other exhausted budgets (the request as
//	              posed cannot fit the server's resource policy)
//	other       → 500: contained panic or unclassified internal failure
func engineErrorStatus(err error) (status int, code string, retryable bool) {
	code = xq.ErrorCode(err)
	if code == "" {
		code = "LOPS0009"
	}
	switch cliutil.Classify(err) {
	case cliutil.ExitStatic:
		return http.StatusBadRequest, code, false
	case cliutil.ExitDynamic:
		return http.StatusUnprocessableEntity, code, false
	case cliutil.ExitLimit:
		if code == interp.CodeTimeout {
			// The evaluation was cut off by the tighter of the clamped
			// Limits.Timeout and the request context deadline; a retry
			// with a bigger budget (or on an idler server) can succeed.
			return http.StatusRequestTimeout, code, true
		}
		return http.StatusUnprocessableEntity, code, false
	default:
		return http.StatusInternalServerError, code, false
	}
}

// errorMessage renders err for the wire: the engine's structured one-line
// form without the tool prefix.
func errorMessage(err error) string {
	return strings.TrimPrefix(cliutil.Format("xqd", err), "xqd: ")
}
