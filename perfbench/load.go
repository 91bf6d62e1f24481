package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"windowctl/internal/rngutil"
	"windowctl/internal/wire"
)

// Workload parameters.  Each is fixed here so two commits run the same
// benchmark; the seed only varies the generated inputs.
const (
	overloadTick   = 10 * time.Millisecond // closed-loop top-up period
	overloadTarget = 1 << 20               // owed ledger kept near this many messages
	overloadCounts = 16                    // batch counts per frame
	overloadMaxCnt = 8                     // each count uniform in [1, overloadMaxCnt]

	httpRate     = 500 // requests per second, open loop
	httpRecords  = 16  // NDJSON records per request
	httpMaxCount = 3   // each record's count uniform in [1, httpMaxCount]
	httpRepoll   = time.Millisecond
)

// sample is one scrape's view of the engine's progress.
type sample struct {
	t       time.Time
	decided int64
	steps   int64
	vnow    float64
}

// pendingClear is a unit of input whose messages are not all decided
// yet: it clears once decided reaches cum.
type pendingClear struct {
	due time.Time
	cum int64
}

// liveStats is what a generator observed during one live segment.
type liveStats struct {
	start, end time.Time // the load phase
	warm       time.Time // latencies of units due before this are not kept

	attempted int64
	failed    int64 // TCP frames answered overloaded, HTTP responses other than 202
	sent      int64 // messages acknowledged (TCP ack or HTTP 202)
	frames    int64 // TCP counts frames acknowledged
	scrapes   int64

	ingestMs []float64 // due → acknowledged
	ackMs    []float64 // socket write (TCP) or request send (HTTP) → acknowledged
	lateMs   []float64 // generator lateness against its own schedule
	clearMs  []float64 // due → every message decided, as seen on /metrics
	scrapeMs []float64
	owed     []float64
	underrun int64

	samples []sample
	clears  []pendingClear
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// warmup is the start of a load phase whose latencies and rates are not
// kept: the ledger fills and the engine warms up.
func warmup(dur time.Duration) time.Duration { return min(time.Second, dur/5) }

// observe records a scrape: progress sample, scrape latency, and any
// units of input it shows fully decided.
func (s *liveStats) observe(sc scrape) {
	s.scrapes++
	s.scrapeMs = append(s.scrapeMs, ms(sc.rtt))
	d := sc.decided()
	s.samples = append(s.samples, sample{t: sc.at, decided: d,
		steps: sc.int("windowd_steps_total"), vnow: sc.v["windowd_virtual_now"]})
	i := 0
	for ; i < len(s.clears) && s.clears[i].cum <= d; i++ {
		if !s.clears[i].due.Before(s.warm) {
			s.clearMs = append(s.clearMs, ms(sc.at.Sub(s.clears[i].due)))
		}
	}
	s.clears = s.clears[i:]
}

// tcpSender wraps a wire.Client and keeps the ack round trips of frames
// flushed since epoch.  The client reads acks only while it is blocked
// on credit, so an ack for a frame flushed in an earlier tick is read
// late and its round trip would include the generator's own
// idle time; those samples are dropped.
type tcpSender struct {
	c      *wire.Client
	epoch  time.Time
	warm   time.Time
	rtts   []float64
	counts []uint32
}

func dialSender(addr string) (*tcpSender, error) {
	s := &tcpSender{counts: make([]uint32, 0, overloadCounts)}
	c, err := wire.Dial(addr, wire.ClientConfig{Credit: wire.MinCredit, OnAck: func(rtt time.Duration) {
		if now := time.Now(); now.Sub(s.epoch) >= rtt && now.After(s.warm) {
			s.rtts = append(s.rtts, ms(rtt))
		}
	}})
	if err != nil {
		return nil, fmt.Errorf("dialing the TCP plane: %w", err)
	}
	s.c = c
	return s, nil
}

// runOverload is the closed-loop saturation generator: every tick it
// reads the owed ledger from /metrics and tops it up to overloadTarget
// over one TCP connection, so the engine never runs dry and throughput
// is the engine's ceiling.
func runOverload(d *daemon, rng *rngutil.Stream, dur time.Duration) (*liveStats, error) {
	st := &liveStats{}
	snd, err := dialSender(d.tcpAddr)
	if err != nil {
		return st, err
	}
	defer snd.c.Close()
	var sent int64
	st.start = time.Now()
	st.end = st.start.Add(dur)
	st.warm = st.start.Add(warmup(dur))
	snd.warm = st.warm
	for due := st.start; due.Before(st.end); due = due.Add(overloadTick) {
		time.Sleep(time.Until(due))
		tickAt := time.Now()
		st.lateMs = append(st.lateMs, ms(tickAt.Sub(due)))
		sc, err := d.scrape()
		if err != nil {
			return st, fmt.Errorf("overload poll: %w", err)
		}
		st.observe(sc)
		owed := sc.int("windowd_owed_arrivals") + sent - sc.int("windowd_ingested_total")
		st.owed = append(st.owed, float64(owed))
		if owed <= 0 && sent > 0 {
			st.underrun++
		}
		snd.epoch = time.Now()
		for deficit := overloadTarget - owed; deficit > 0; {
			snd.counts = snd.counts[:0]
			for i := 0; i < overloadCounts; i++ {
				c := uint32(1 + rng.Intn(overloadMaxCnt))
				snd.counts = append(snd.counts, c)
				deficit -= int64(c)
				sent += int64(c)
			}
			st.attempted++
			if err := snd.c.Send(snd.counts); err != nil {
				return st, fmt.Errorf("overload send: %w", err)
			}
		}
		if err := snd.c.Flush(); err != nil {
			return st, fmt.Errorf("overload flush: %w", err)
		}
		st.clears = append(st.clears, pendingClear{due: tickAt, cum: sent})
	}
	return st, finishSender(snd, st, sent)
}

// finishSender half-closes the connection so the server acknowledges
// every frame, and books the acknowledged total.  A frame the server
// refused counts as a failed operation.
func finishSender(snd *tcpSender, st *liveStats, sent int64) error {
	err := snd.c.Drain()
	st.frames = int64(snd.c.Acked())
	if refused := int64(snd.c.Sent() - snd.c.Acked()); refused > 0 {
		st.failed += refused
		return fmt.Errorf("server refused %d of %d frames: %v", refused, snd.c.Sent(), err)
	}
	if err != nil {
		return fmt.Errorf("draining the TCP client: %w", err)
	}
	st.sent = sent
	st.ingestMs = snd.rtts
	st.ackMs = snd.rtts
	return nil
}

// runHTTP is the open-loop HTTP generator: requests of httpRecords
// NDJSON records are due every 1/httpRate seconds on one connection and
// are timed from when they were due; a second connection scrapes
// /metrics after each acknowledgement to see the request's messages
// decided.
func runHTTP(d *daemon, rng *rngutil.Stream, dur time.Duration) (*liveStats, error) {
	st := &liveStats{}
	var mu sync.Mutex // guards st.clears, st.samples and st.sent between the two loops
	n := int(dur.Seconds() * httpRate)
	bodies := make([][]byte, n)
	counts := make([]int64, n)
	for i := range bodies {
		var b bytes.Buffer
		for r := 0; r < httpRecords; r++ {
			c := 1 + rng.Intn(httpMaxCount)
			counts[i] += int64(c)
			b.WriteString(`{"count":` + strconv.Itoa(c) + "}\n")
		}
		bodies[i] = b.Bytes()
	}
	ingest := &http.Client{Timeout: 10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer ingest.CloseIdleConnections()
	url := "http://" + d.httpAddr + "/ingest"

	done := make(chan struct{})
	pollErr := make(chan error, 1)
	st.start = time.Now()
	st.end = st.start.Add(dur)
	st.warm = st.start.Add(warmup(dur))
	// The poller scrapes as soon as a request is acknowledged, and again
	// every httpRepoll until every acknowledged message is decided.
	acked := make(chan struct{}, 1) // one pending wake-up covers any number of acks
	go func() {
		for {
			select {
			case <-done:
				pollErr <- nil
				return
			case <-acked:
			}
			for {
				sc, err := d.scrape()
				if err != nil {
					pollErr <- fmt.Errorf("http-ndjson poll: %w", err)
					return
				}
				mu.Lock()
				st.observe(sc)
				st.owed = append(st.owed, float64(sc.int("windowd_owed_arrivals")))
				pending := len(st.clears)
				mu.Unlock()
				if pending == 0 {
					break
				}
				select {
				case <-done:
					pollErr <- nil
					return
				case <-time.After(httpRepoll):
				}
			}
		}
	}()

	interval := time.Second / httpRate
	var err error
	prevDone := st.start
	for i := 0; i < n; i++ {
		due := st.start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		sendAt := time.Now()
		// The request could have gone out at ready: its due time, or
		// later if the connection was still busy with the previous one.
		// Time past ready is the generator's own lateness (Go timers
		// wake on about 1 ms boundaries here); it is reported as
		// gen.late_p90_ms and kept out of the request's latency, while
		// a wait imposed by a slow previous response stays in.
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		start := due.Add(sendAt.Sub(ready))
		st.lateMs = append(st.lateMs, ms(sendAt.Sub(ready)))
		var resp *http.Response
		resp, err = ingest.Post(url, "application/x-ndjson", bytes.NewReader(bodies[i]))
		if err != nil {
			err = fmt.Errorf("http-ndjson request %d: %w", i, err)
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		now := time.Now()
		prevDone = now
		st.attempted++
		if resp.StatusCode != http.StatusAccepted {
			st.failed++
			continue
		}
		if !due.Before(st.warm) {
			st.ingestMs = append(st.ingestMs, ms(now.Sub(start)))
			st.ackMs = append(st.ackMs, ms(now.Sub(sendAt)))
		}
		mu.Lock()
		st.sent += counts[i]
		st.clears = append(st.clears, pendingClear{due: start, cum: st.sent})
		mu.Unlock()
		select {
		case acked <- struct{}{}:
		default:
		}
	}
	close(done)
	if perr := <-pollErr; err == nil {
		err = perr
	}
	if err != nil {
		return st, err
	}
	if st.failed > 0 {
		return st, fmt.Errorf("%d of %d ingest requests were not accepted", st.failed, st.attempted)
	}
	return st, nil
}
