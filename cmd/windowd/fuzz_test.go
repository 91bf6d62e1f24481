package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzIngestNDJSON throws arbitrary request bodies at POST /ingest.  The
// contract under attack: the handler never panics, answers only 202 or
// 400, and on a 202 books exactly the sum of the records' counts, which
// is never negative.
func FuzzIngestNDJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("{\"count\":3}\n{}\n\n{\"count\":0}\n"))
	f.Add([]byte("{\"count\":9223372036854775807}\n{\"count\":9223372036854775807}\n"))
	f.Add([]byte("{\"count\":4294967295}\r\n{\"count\":4294967296}"))
	f.Add([]byte("{\"count\":-1}\n"))
	f.Add([]byte("{\"count\":1.5}\n"))
	f.Add([]byte("{\"count\":null}\n{\"COUNT\":2}"))
	f.Add([]byte("{\"count\":1}{\"count\":2}\n"))
	f.Add([]byte("not json\n"))

	f.Fuzz(func(t *testing.T, body []byte) {
		s := &server{} // no pump: booking only moves the counters
		rec := httptest.NewRecorder()
		s.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
		booked := s.totalIngested.Load()
		switch rec.Code {
		case http.StatusBadRequest:
			if booked != 0 {
				t.Fatalf("rejected body booked %d messages", booked)
			}
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("status %d, want 202 or 400", rec.Code)
		}
		if booked < 0 {
			t.Fatalf("booked a negative total %d", booked)
		}
		// Independent reading of the body: every non-blank line is one
		// record whose count (default 1) the handler must have booked.
		var want int64
		for _, line := range bytes.Split(body, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			var r struct {
				Count *int64 `json:"count"`
			}
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatalf("accepted a bad record %q: %v", line, err)
			}
			n := int64(1)
			if r.Count != nil {
				n = *r.Count
			}
			if n < 0 || n > math.MaxUint32 {
				t.Fatalf("accepted an out-of-range count %d", n)
			}
			want += n
		}
		if booked != want {
			t.Fatalf("booked %d messages, records sum to %d", booked, want)
		}
	})
}
