package main

import (
	"sort"

	apiv1 "macroflow/api/v1"
	"macroflow/internal/obs"
)

// maxEventsPerJob bounds one job's in-memory event feed. Span events
// beyond the cap are dropped (with a final marker event); state and
// progress events always land, so a client never misses a transition.
const maxEventsPerJob = 4096

// eventLog is a job's event feed in compact form. Stitch progress
// samples, most of a feed, are 32-byte records; state and span events
// keep their sequence number, and a span keeps the attribute slice its
// obs span built. Records are only ever appended, so a copy of the log
// taken under the job's lock can be rendered after the lock is
// released: render turns the records back into the apiv1.Events a
// client reads.
type eventLog struct {
	progress []progressRec
	other    []eventRec // ascending seq
	dropped  int        // span events past maxEventsPerJob
}

// progressRec is one stitcher progress sample.
type progressRec struct {
	atMs  int64
	iter  int
	cost  float64
	chain int32
}

// eventRec is one state or span event.
type eventRec struct {
	seq   int
	span  bool
	name  string
	atMs  int64
	durUs int64
	attrs []obs.Attr
}

func (l *eventLog) len() int { return len(l.progress) + len(l.other) }

func (l *eventLog) addState(name string, atMs int64) {
	l.other = append(l.other, eventRec{seq: l.len(), name: name, atMs: atMs})
}

func (l *eventLog) addProgress(chain, iter int, cost float64, atMs int64) {
	l.progress = append(l.progress, progressRec{atMs: atMs, iter: iter, cost: cost, chain: int32(chain)})
}

// addSpan appends a span event, or drops it once the feed holds
// maxEventsPerJob events; the first drop appends the truncation marker.
func (l *eventLog) addSpan(sr obs.SpanRecord, atMs int64) {
	if l.len() >= maxEventsPerJob {
		if l.dropped == 0 {
			l.addState("events_truncated", atMs)
		}
		l.dropped++
		return
	}
	l.other = append(l.other, eventRec{seq: l.len(), span: true, name: sr.Name,
		atMs: atMs, durUs: sr.Dur.Microseconds(), attrs: sr.Attrs})
}

// render calls emit with the events of seq from onward, in seq order.
func (l eventLog) render(from int, emit func(*apiv1.Event) error) error {
	k := sort.Search(len(l.other), func(i int) bool { return l.other[i].seq >= from })
	p := from - k // the progress samples before from
	for seq := from; seq < l.len(); seq++ {
		var ev apiv1.Event
		if k < len(l.other) && l.other[k].seq == seq {
			ev = l.other[k].event()
			k++
		} else {
			r := l.progress[p]
			ev = apiv1.Event{Type: "progress", Name: "stitch", AtMs: r.atMs,
				Chain: int(r.chain), Iter: r.iter, Cost: r.cost}
			p++
		}
		ev.Seq = seq
		if err := emit(&ev); err != nil {
			return err
		}
	}
	return nil
}

func (r *eventRec) event() apiv1.Event {
	if !r.span {
		return apiv1.Event{Type: "state", Name: r.name, AtMs: r.atMs}
	}
	ev := apiv1.Event{Type: "span", Name: r.name, AtMs: r.atMs, DurUs: r.durUs}
	if len(r.attrs) > 0 {
		ev.Attrs = make(map[string]any, len(r.attrs))
		for _, a := range r.attrs {
			ev.Attrs[a.Key] = a.Val
		}
	}
	return ev
}
