package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// sample is what the generator keeps per request. Untraced runs fill only
// lat and ok; traced runs also keep when the request started, what pvserve
// said it spent (the response's latency_us) and the byte counts.
type sample struct {
	kind   opKind
	ok     bool
	lat    time.Duration // closed loop: send → reply; open loop: see runOpen
	late   time.Duration // open loop: due → send
	queued bool          // open loop: the previous reply came after this request was due
	start  time.Duration // since the run's epoch (traced only)
	server time.Duration // response latency_us (traced only)
	req    int           // request body bytes (traced only)
	resp   int           // response body bytes (traced only)
}

// rtt is the request's send → reply time.
func (s sample) rtt() time.Duration {
	if s.queued {
		return s.lat - s.late
	}
	return s.lat
}

// clientLog is one connection's record of a fixed op sequence.
type clientLog struct {
	samples []sample
	// winStart[w] and winEnd[w] bracket window w on this connection.
	winStart, winEnd [windows]time.Duration
}

// resultMarker is what a 200 reply must contain to count as a non-empty
// answer, per op kind. pvserve encodes maps with sorted keys and no spaces.
var resultMarker = [numOpKinds][]byte{
	opQuery:       []byte(`"results":[{`),
	opPossibleNN:  []byte(`"candidates":[{`),
	opKNN:         []byte(`"results":[{`),
	opGroupNN:     []byte(`"results":[{`),
	opInsertBatch: []byte(`"count":`),
	opDeleteBatch: []byte(`"count":`),
	opCheckpoint:  []byte(`"wal_seq":`),
}

func replyOK(kind opKind, status int, body []byte) bool {
	return status == http.StatusOK && bytes.Contains(body, resultMarker[kind])
}

var latencyKey = []byte(`"latency_us":`)

// serverLatency extracts latency_us from a reply without decoding it.
func serverLatency(body []byte) time.Duration {
	i := bytes.Index(body, latencyKey)
	if i < 0 {
		return 0
	}
	rest := body[i+len(latencyKey):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	v, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(v) * time.Microsecond
}

// runClosed drives one closed-loop connection per sequence: each sends its
// next request only after the previous reply, so at most len(seqs) requests
// are in flight. A transport error ends that connection's sequence; its
// remaining ops count as failed.
func runClosed(addr string, seqs [][]request, traced bool) ([]clientLog, error) {
	conns := make([]*client, len(seqs))
	for i := range seqs {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		conns[i] = c
	}
	logs := make([]clientLog, len(seqs))
	for i := range logs {
		logs[i].samples = make([]sample, len(seqs[i]))
	}
	var wg sync.WaitGroup
	epoch := time.Now()
	for i := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			driveClosed(conns[i], seqs[i], &logs[i], epoch, traced)
		}()
	}
	wg.Wait()
	return logs, nil
}

func driveClosed(c *client, seq []request, log *clientLog, epoch time.Time, traced bool) {
	n := len(seq)
	win := -1
	for i := range seq {
		if w := windowOf(i, n); w != win {
			now := time.Since(epoch)
			if win >= 0 {
				log.winEnd[win] = now
			}
			log.winStart[w] = now
			win = w
		}
		s := &log.samples[i]
		s.kind = seq[i].kind
		t0 := time.Now()
		status, body, err := c.do(seq[i].wire)
		s.lat = time.Since(t0)
		if err != nil {
			for j := i + 1; j < n; j++ {
				log.samples[j].kind = seq[j].kind
			}
			break
		}
		s.ok = replyOK(s.kind, status, body)
		if traced {
			s.start = t0.Sub(epoch)
			s.server = serverLatency(body)
			s.req, s.resp = seq[i].body, len(body)
		}
	}
	if win >= 0 {
		log.winEnd[win] = time.Since(epoch)
	}
}

// runOpen drives one open-loop connection: request i is due at i/rate after
// the start, whether or not earlier replies have arrived. A request that had
// to wait for an earlier reply is timed from when it was due, so a stall
// charges every request it delays. A request that found the connection free
// is timed from when it was sent: how late the generator's own timer woke it
// (0.6 ms at the median beside pvserve's busy SE workers on two cores) says
// nothing about pvserve and is reported as lateness, not charged as latency.
// It stops after the first request that falls due after stop is closed.
func runOpen(addr string, reqs []request, rate float64, epoch time.Time, stop <-chan struct{}, traced bool) ([]sample, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	var out []sample
	var prevDone time.Duration
	for i := 0; ; i++ {
		due := dueTime(i, rate)
		if wait := due - time.Since(epoch); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case <-stop:
			return out, nil
		default:
		}
		req := reqs[i%len(reqs)]
		sent := time.Since(epoch)
		status, body, err := c.do(req.wire)
		if err != nil {
			return out, fmt.Errorf("open-loop reader: %w", err)
		}
		done := time.Since(epoch)
		s := sample{kind: req.kind, ok: replyOK(req.kind, status, body), lat: done - sent, late: sent - due, start: due, queued: prevDone > due}
		if s.queued {
			s.lat = done - due
		}
		prevDone = done
		if traced {
			s.server = serverLatency(body)
			s.req, s.resp = req.body, len(body)
		}
		out = append(out, s)
	}
}

// latencies returns the ok samples of one kind in window w, in microseconds.
func latencies(logs []clientLog, kind opKind, w int) []float64 {
	var out []float64
	for _, l := range logs {
		n := len(l.samples)
		for i, s := range l.samples {
			if !s.ok || s.kind != kind || windowOf(i, n) != w {
				continue
			}
			out = append(out, us(s.lat))
		}
	}
	return out
}

// throughput returns, per window, the ok ops completed per second summed
// over the connections.
func throughput(logs []clientLog) []float64 {
	out := make([]float64, windows)
	for _, l := range logs {
		n := len(l.samples)
		var done [windows]int
		for i, s := range l.samples {
			if s.ok {
				done[windowOf(i, n)]++
			}
		}
		for w := range out {
			if d := l.winEnd[w] - l.winStart[w]; d > 0 {
				out[w] += float64(done[w]) / d.Seconds()
			}
		}
	}
	return out
}

// countFailed returns how many samples did not end in a correct 200 reply.
func countFailed(logs []clientLog) (attempted, failed int) {
	for _, l := range logs {
		for _, s := range l.samples {
			attempted++
			if !s.ok {
				failed++
			}
		}
	}
	return attempted, failed
}
