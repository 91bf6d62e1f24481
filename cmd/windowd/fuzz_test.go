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
		booked := s.owed.Load()
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

// FuzzConfigPost throws arbitrary request bodies at POST /config.  The
// contract under attack: the handler never panics and answers only 200,
// 400 or 503, and after a 200 the swapped-in engine releases owed
// messages and steps with its books balancing and /healthz at 200.
func FuzzConfigPost(f *testing.F) {
	f.Add([]byte(`{"km":4,"load":0.5,"protocol":"controlled"}`))
	f.Add([]byte(`{"load":1e300}`))
	f.Add([]byte(`{"m":1e-300}`))
	f.Add([]byte(`{"load":1000,"m":1,"synthetic":true}`))
	f.Add([]byte(`{"k":1e15,"g":0.1,"seed":3}`))
	f.Add([]byte(`{"protocol":"fcfs","km":1}`))
	f.Add([]byte(`{"protocol":"nosuch"}`))
	f.Add([]byte(`{"tau":2}`))
	f.Add([]byte(`{"g":-1}`))
	f.Add([]byte(`{"g":1e-300}`))
	f.Add([]byte(`{"m":1e300,"k":1,"protocol":"tournament"}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, body []byte) {
		srv, p := barePump(t, testOptions())
		srv.ctrl = make(chan ctrlMsg)
		srv.done = make(chan struct{})
		// Stand in for the pump goroutine for one reconfiguration, and
		// wait for it to exit before touching the server again.
		served := make(chan struct{})
		go func() {
			defer close(served)
			select {
			case m := <-srv.ctrl:
				p.reconfigure(m)
			case <-srv.done:
			}
		}()
		rec := httptest.NewRecorder()
		srv.handleConfigPost(rec, httptest.NewRequest(http.MethodPost, "/config", bytes.NewReader(body)))
		close(srv.done)
		<-served
		switch rec.Code {
		case http.StatusBadRequest, http.StatusServiceUnavailable:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d, want 200, 400 or 503: %s", rec.Code, rec.Body)
		}
		srv.done = make(chan struct{}) // the stand-in pump is gone, not stopped
		srv.owed.Add(1000)
		for i := 0; i < 64; i++ {
			if err := p.advance(); err != nil {
				t.Fatalf("step %d after /config %s: %v", i, body, err)
			}
		}
		p.publish(p.st.CheckNow())
		rec = httptest.NewRecorder()
		srv.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/healthz after /config %s: status %d: %s", body, rec.Code, rec.Body)
		}
	})
}
