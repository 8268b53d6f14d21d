package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	apiv1 "macroflow/api/v1"
	"macroflow/internal/obs"
)

// refFeed is the event feed as a slice of apiv1.Events, each built when
// it was emitted, with the span cap applied the same way: the form the
// compact log must render byte for byte.
type refFeed struct {
	events  []apiv1.Event
	dropped int
}

func (f *refFeed) emit(ev apiv1.Event) {
	if ev.Type == "span" && len(f.events) >= maxEventsPerJob {
		if f.dropped == 0 {
			f.events = append(f.events, apiv1.Event{Seq: len(f.events), Type: "state", Name: "events_truncated", AtMs: ev.AtMs})
		}
		f.dropped++
		return
	}
	ev.Seq = len(f.events)
	f.events = append(f.events, ev)
}

// TestEventLogRendersIdentically: /events serves the compact log as the
// JSONL json.Encoder writes for the events as they were emitted — state,
// span and progress events interleaved, span attributes in the order
// their keys sort (a repeated key keeping its last value), the
// truncation marker where the span cap falls, and state and progress
// events past it — from every ?from= a client resumes at.
func TestEventLogRendersIdentically(t *testing.T) {
	s := newServer(serverConfig{Workers: 1, Logf: func(string, ...any) {}})
	j := &job{id: jobID(1), seq: 1, index: -1}
	j.cond = sync.NewCond(&j.mu)
	s.jobs[j.id], s.seq = j, 1

	var ref refFeed
	at := int64(1_700_000_000_000)
	state := func(name string) {
		at++
		j.events.addState(name, at)
		ref.emit(apiv1.Event{Type: "state", Name: name, AtMs: at})
	}
	span := func(i int) {
		at++
		sr := obs.SpanRecord{Name: "oracle.probe", Dur: time.Duration(i) * 1500 * time.Nanosecond}
		switch i % 3 {
		case 1:
			sr.Attrs = []obs.Attr{obs.String("verdict", "feasible"), obs.Float("cf", 0.5+float64(i)/64),
				obs.Int("block", i), obs.String("cache", "miss"), obs.Int("block", -i)}
		case 2:
			sr.Attrs = []obs.Attr{obs.Float("cost", 1e21), obs.Float("rate", float64(i)/3)}
		}
		j.events.addSpan(sr, at)
		ev := apiv1.Event{Type: "span", Name: sr.Name, AtMs: at, DurUs: sr.Dur.Microseconds()}
		if len(sr.Attrs) > 0 {
			ev.Attrs = map[string]any{}
			for _, a := range sr.Attrs {
				ev.Attrs[a.Key] = a.Val
			}
		}
		ref.emit(ev)
	}
	progress := func(i int) {
		at++
		chain, iter, cost := i%4, 1<<33+i*1000, 12345.678/float64(i+1)
		j.events.addProgress(chain, iter, cost, at)
		ref.emit(apiv1.Event{Type: "progress", Name: "stitch", AtMs: at, Chain: chain, Iter: iter, Cost: cost})
	}

	state(apiv1.JobQueued)
	state(apiv1.JobRunning)
	for i := 0; i < maxEventsPerJob+300; i++ {
		if i%5 == 4 {
			progress(i)
		} else {
			span(i)
		}
	}
	state(apiv1.JobDone)
	if ref.dropped == 0 || ref.dropped != j.events.dropped || len(ref.events) != j.events.len() {
		t.Fatalf("log holds %d events, %d spans dropped; the feed %d, %d; want the same, with spans past the cap",
			j.events.len(), j.events.dropped, len(ref.events), ref.dropped)
	}
	j.state = apiv1.JobDone

	marker := slices.IndexFunc(ref.events, func(ev apiv1.Event) bool { return ev.Name == "events_truncated" })
	if marker < maxEventsPerJob {
		t.Fatalf("truncation marker at %d, want one at or past %d", marker, maxEventsPerJob)
	}
	for _, from := range []int{0, 1, 2, 3, 1000, marker - 1, marker, marker + 1, len(ref.events) - 1, len(ref.events), len(ref.events) + 7} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		for _, ev := range ref.events[min(from, len(ref.events)):] {
			enc.Encode(ev)
		}
		rr := httptest.NewRecorder()
		s.routes().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/jobs/%s/events?from=%d", j.id, from), nil))
		if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), want.Bytes()) {
			t.Errorf("from=%d: HTTP %d, %d bytes; want the %d bytes json.Encoder writes for events %d on",
				from, rr.Code, rr.Body.Len(), want.Len(), from)
		}
	}
}
