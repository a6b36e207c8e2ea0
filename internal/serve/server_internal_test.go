package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWriteJSONEncodeError: a value json.Marshal refuses answers 500 with
// an apiError. The status is committed only after the body is encoded, so
// the client never sees a 200 with an empty body.
func TestWriteJSONEncodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"best_ms": math.NaN()})

	if rec.Code != http.StatusInternalServerError {
		t.Errorf("unencodable response: HTTP %d, want 500", rec.Code)
	}
	var apiErr apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || apiErr.Error == "" {
		t.Errorf("unencodable response body %q is not an apiError (%v)", rec.Body.Bytes(), err)
	}
}
