package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"appx/internal/apps"
	"appx/internal/device"
	"appx/internal/httpmsg"
	"appx/internal/interp"
	"appx/internal/trace"
)

// Replay workloads (warm, cold) send recorded request streams as raw HTTP
// over unshaped loopback with no think time: a closed loop that keeps the
// proxy's per-request path busy.

// userMarker stands in for the X-Appx-User value in a serialized request;
// each send splices the replaying user's id in its place.
const userMarker = "\x00user\x00"

// recReq is one recorded request with the origin's own answer to it.
type recReq struct {
	req            *httpmsg.Request
	prefix, suffix []byte
	status         int
	size           int64
	sum            uint32
}

type recInteraction struct {
	main bool
	reqs []recReq
}

type stream []recInteraction

// recordStreams runs generated sessions on a device wired straight to a
// fresh in-process origin (no proxy, no delays, no render sleeps) and keeps
// every request, grouped by interaction, with the origin's answer. The
// origin is deterministic, so its answer to a request already seen (same
// canonical key, the identity the proxy's cache relies on) is reused.
func recordStreams(a *apps.App, n int, seed int64) ([]stream, error) {
	h := a.Handler(0)
	seen := map[string]*httpmsg.Response{}
	answer := func(r *httpmsg.Request) (*httpmsg.Response, error) {
		key := r.CanonicalKey()
		if resp, ok := seen[key]; ok {
			return resp, nil
		}
		resp, err := httpmsg.ServeViaHandler(h, r)
		seen[key] = resp
		return resp, err
	}
	traces := trace.GenerateStudy(a.APK, n, seed*1_000_003+17, sessionDuration)
	out := make([]stream, 0, n)
	for _, t := range traces {
		var cur *recInteraction
		var recErr error
		d, err := device.New(device.Config{
			APK: a.APK,
			Transport: interp.TransportFunc(func(r *httpmsg.Request) (*httpmsg.Response, error) {
				resp, err := answer(r)
				if err != nil {
					return nil, err
				}
				rr, err := serialize(r)
				if err != nil {
					recErr = err
					return nil, err
				}
				rr.status, rr.size, rr.sum = resp.Status, int64(len(resp.Body)), checksum(resp.Body)
				cur.reqs = append(cur.reqs, rr)
				return resp, nil
			}),
			Props: interp.DeviceProps{UserAgent: "AppxEmu/1.0 (user " + t.User + ")", Locale: "en-US", AppVersion: a.APK.Manifest.Version},
		})
		if err != nil {
			return nil, err
		}
		var s stream
		for _, e := range t.Events {
			cur = &recInteraction{main: e.Main}
			switch e.Kind {
			case trace.Launch:
				_, err = d.Launch()
			case trace.Tap:
				_, err = d.Tap(e.Widget, e.Index)
			default:
				d.Back()
				continue
			}
			if recErr != nil {
				return nil, recErr
			}
			if err != nil {
				return nil, fmt.Errorf("record %s session %s: %w", a.Name, t.User, err)
			}
			if len(cur.reqs) > 0 {
				s = append(s, *cur)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// serialize renders r in proxy (absolute-URI) form, split around the user
// header's value.
func serialize(r *httpmsg.Request) (recReq, error) {
	hreq, err := r.ToHTTP()
	if err != nil {
		return recReq{}, err
	}
	hreq.Host = r.Host
	hreq.Header.Set("X-Appx-User", userMarker)
	var buf bytes.Buffer
	if err := hreq.WriteProxy(&buf); err != nil {
		return recReq{}, err
	}
	prefix, suffix, ok := bytes.Cut(buf.Bytes(), []byte(userMarker))
	if !ok {
		return recReq{}, fmt.Errorf("serialize %s: user header lost", r.URL())
	}
	return recReq{req: r.Clone(), prefix: bytes.Clone(prefix), suffix: bytes.Clone(suffix)}, nil
}

// rawConn is one client keep-alive connection to the proxy.
type rawConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
	crc  hashCounter
}

type hashCounter struct {
	sum uint32
	n   int64
}

func (h *hashCounter) Write(p []byte) (int, error) {
	h.sum = crc32.Update(h.sum, crcTable, p)
	h.n += int64(len(p))
	return len(p), nil
}

func (rc *rawConn) close() {
	if rc.c != nil {
		rc.c.Close()
		rc.c = nil
	}
}

// send performs one request and checks the answer against the recording.
func (rc *rawConn) send(r *recReq, user string) (ok bool, n int64, err error) {
	if rc.c == nil {
		c, err := net.Dial("tcp", rc.addr)
		if err != nil {
			return false, 0, err
		}
		rc.c, rc.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	rc.buf = append(append(append(rc.buf[:0], r.prefix...), user...), r.suffix...)
	if _, err := rc.c.Write(rc.buf); err != nil {
		rc.close()
		return false, 0, err
	}
	resp, err := http.ReadResponse(rc.br, nil)
	if err != nil {
		rc.close()
		return false, 0, err
	}
	rc.crc = hashCounter{}
	_, err = io.Copy(&rc.crc, resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		rc.close()
	}
	if err != nil {
		return false, 0, err
	}
	ok = resp.StatusCode == r.status && rc.crc.n == r.size && rc.crc.sum == r.sum
	return ok, rc.crc.n, nil
}

// replayJob names one stream replay: which recorded stream, as which user.
type replayJob func(worker, k int) (s stream, user string)

// runReplay drives conns closed-loop connections until the deadline. Worker
// w performs jobs w, w+conns, w+2·conns, ... so one user's stream is never
// replayed on two connections at once. A non-nil settle runs after every
// interaction with the number of requests that worker has sent.
func runReplay(addr string, conns int, deadline time.Time, job replayJob, settle func(sent int64)) []*clientLog {
	logs := make([]*clientLog, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		logs[w] = &clientLog{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rc := &rawConn{addr: addr}
			defer rc.close()
			for k := 0; time.Now().Before(deadline); k++ {
				s, user := job(w, k)
				if s == nil {
					return
				}
				replayStream(rc, s, user, logs[w], deadline, settle)
			}
		}(w)
	}
	wg.Wait()
	return logs
}

// replayStream sends one stream's requests back to back. An interaction's
// latency runs from its first send to its last response.
func replayStream(rc *rawConn, s stream, user string, log *clientLog, deadline time.Time, settle func(int64)) {
	for i := range s {
		if !time.Now().Before(deadline) {
			return
		}
		it := &s[i]
		istart := time.Now()
		for j := range it.reqs {
			r := &it.reqs[j]
			log.attempted++
			start := time.Now()
			ok, n, err := rc.send(r, user)
			if err != nil {
				log.fail(err)
				continue
			}
			if !ok {
				log.mismatches++
				log.fail(fmt.Errorf("oracle mismatch on %s %s", r.req.Method, r.req.URL()))
			}
			log.done(time.Since(start), int(n), 0)
		}
		log.interaction(time.Since(istart), it.main, 0)
		log.txns += len(it.reqs)
		if settle != nil {
			settle(log.attempted)
		}
	}
}

// replayRequests flattens the streams' requests for the match timing.
func replayRequests(ss []stream) []*httpmsg.Request {
	var out []*httpmsg.Request
	for _, s := range ss {
		for _, it := range s {
			for _, r := range it.reqs {
				out = append(out, r.req)
			}
		}
	}
	return out
}
