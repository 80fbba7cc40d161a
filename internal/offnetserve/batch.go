package offnetserve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"offnetscope/internal/netmodel"
)

// batchRequest is the POST /v1/batch body: a flat list of dotted-quad
// addresses to resolve.
type batchRequest struct {
	IPs []string `json:"ips"`
}

// batchAnswer is the POST /v1/batch body. Each result is an ipAnswer,
// or an itemError for an address that does not parse.
type batchAnswer struct {
	Count      int    `json:"count"`
	Generation uint64 `json:"generation"`
	Results    []any  `json:"results"`
}

// itemError is the batch item of an unparseable address.
type itemError struct {
	Error string `json:"error"`
	IP    string `json:"ip"`
}

// handleBatch answers POST /v1/batch: amortized bulk IP→HG resolution.
// One batch consumes one worker-pool slot and one HTTP round trip for
// up to maxBatch lookups, which is what makes million-lookup runs
// affordable. The response carries per-item results in input order —
// an unparseable address yields a per-item error, never a whole-batch
// failure — plus the store generation every item was resolved against
// (the whole batch pins one view, so one generation covers all items).
// Batches bypass the query cache: their item mix is too diverse to
// reuse and would evict the hot single-query entries.
func (s *Server) handleBatch(v *view, w http.ResponseWriter, r *http.Request) {
	// Bound the body before decoding: ~64 bytes covers any quoted
	// dotted-quad plus JSON framing, so maxBatch items always fit and
	// a deliberately huge body fails fast.
	body := http.MaxBytesReader(w, r.Body, int64(s.maxBatch)*64+4096)
	var req batchRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid batch body: %v", err))
		return
	}
	if len(req.IPs) > s.maxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds the %d-item limit", len(req.IPs), s.maxBatch))
		return
	}
	s.batchItems.Add(int64(len(req.IPs)))
	// All items share the request's deadline budget: a batch must not
	// stretch one worker slot past RequestTimeout just because it has
	// many items. The check is amortized over 64 items — one atomic
	// load per check, invisible against the lookup cost.
	ctx := r.Context()
	results := make([]any, len(req.IPs))
	for i, raw := range req.IPs {
		if i&63 == 0 && ctx.Err() != nil {
			writeError(w, http.StatusGatewayTimeout,
				fmt.Sprintf("batch deadline exceeded after %d of %d items", i, len(req.IPs)))
			return
		}
		ip, err := netmodel.ParseIP(raw)
		if err != nil {
			results[i] = itemError{Error: err.Error(), IP: raw}
			continue
		}
		results[i] = resolveIP(v.st, ip)
	}
	writeJSON(w, http.StatusOK, &batchAnswer{Count: len(req.IPs), Generation: v.gen, Results: results})
}
