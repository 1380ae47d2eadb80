// Package httpx holds the tiny HTTP helpers shared by every JSON
// surface of the server (service, sweep), so strict-decode and
// error-shape semantics cannot drift between endpoints.
package httpx

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// DecodeStrict reads one JSON value from the request body (bounded by
// limit bytes), rejecting unknown fields and trailing data.
func DecodeStrict(r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after request body")
	}
	return nil
}

// WriteJSON writes v as a JSON response with the given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// An encode failure past this point cannot be reported: the status
	// line is already on the wire.
	json.NewEncoder(w).Encode(v)
}

// Error writes the canonical {"error": "..."} JSON error body.
func Error(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, struct {
		Error string `json:"error"`
	}{err.Error()})
}
