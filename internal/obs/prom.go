package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the zero-dependency Prometheus text exposition of a
// Recorder's metric registry (exposition format version 0.0.4), plus a
// strict parser of the same format that tests use to validate a
// scrape.
//
// Label convention: registry metric names may carry a Prometheus-style
// label suffix, e.g.
//
//	rec.Add(`jobs_total{state="done"}`, 1)
//
// The exporter splits the base name from the label block, sanitizes the
// base (dots and other invalid characters become underscores) and
// groups all series of one base under a single # TYPE line, families in
// name order and series in registry order. Names without a label block
// export unlabeled.

// WritePrometheus renders the recorder's counters, set gauges and
// histograms as Prometheus text: counters as counters, gauges as
// gauges, and histograms as classic histograms (<name>_bucket{le="..."}
// in bound order, +Inf last, then _sum and _count) plus
// computed-quantile gauge companions <name>_p50 / _p95 / _p99. The
// output is a function of the registry's contents alone. A nil
// recorder writes nothing. Spans are not exported — scrape endpoints
// expose metrics, trace timelines travel via WriteChromeTrace.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	fams := map[string]*promFamily{}
	var names []string
	add := func(family, typ, sample, labels string, v float64) {
		f := fams[family]
		if f == nil {
			f = &promFamily{name: family, typ: typ}
			fams[family] = f
			names = append(names, family)
		}
		f.samples = append(f.samples, promLine(sample, labels, v))
	}
	m := r.snapshot()
	for _, c := range m.counters {
		base, labels := splitSeries(c.name)
		add(base, "counter", base, labels, float64(c.val))
	}
	for _, g := range m.gauges {
		base, labels := splitSeries(g.name)
		add(base, "gauge", base, labels, g.val)
	}
	for _, h := range m.hists {
		base, labels := splitSeries(h.name)
		s := h.val
		cum := int64(0)
		for i, c := range s.Counts {
			cum += c
			le := "+Inf"
			if i < len(s.Bounds) {
				le = formatProm(s.Bounds[i])
			}
			add(base, "histogram", base+"_bucket", joinLabels(labels, `le="`+le+`"`), float64(cum))
		}
		add(base, "histogram", base+"_sum", labels, s.Sum)
		// _count is the +Inf bucket's count, from the same read: the
		// snapshot's Count may trail bucket increments that raced it.
		add(base, "histogram", base+"_count", labels, float64(cum))
		add(base+"_p50", "gauge", base+"_p50", labels, s.Quantile(0.50))
		add(base+"_p95", "gauge", base+"_p95", labels, s.Quantile(0.95))
		add(base+"_p99", "gauge", base+"_p99", labels, s.Quantile(0.99))
	}

	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, n := range names {
		f := fams[n]
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.samples {
			fmt.Fprintln(bw, s)
		}
	}
	return bw.Flush()
}

type promFamily struct {
	name    string
	typ     string
	samples []string
}

// splitSeries splits a registry name into its sanitized base and the
// raw inner label block ("" when unlabeled). Malformed blocks stay in
// the base name and get sanitized away rather than emitting broken
// syntax.
func splitSeries(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return promName(name), ""
	}
	return promName(name[:i]), name[i+1 : len(name)-1]
}

// joinLabels merges two raw label blocks.
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "," + b
}

// promName sanitizes a registry name into the Prometheus name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*; dots (the registry's natural separator) and
// every other invalid character become underscores.
func promName(s string) string {
	if s == "" {
		return "_"
	}
	var sb strings.Builder
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if ok {
			sb.WriteRune(c)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func promLine(name, labels string, v float64) string {
	if labels != "" {
		return name + "{" + labels + "} " + formatProm(v)
	}
	return name + " " + formatProm(v)
}

// formatProm renders a sample value (Prometheus spells infinities
// "+Inf"/"-Inf").
func formatProm(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PromSample is one parsed sample line of a Prometheus text exposition.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns the named label's value ("" when absent).
func (s PromSample) Label(k string) string { return s.Labels[k] }

// ParsePrometheusText strictly parses a Prometheus text exposition
// (format 0.0.4): metric and label names must match the format's
// charsets, label values must be correctly quoted and escaped, values
// must parse as floats, every # TYPE line must name a valid type and
// precede its family's samples, and no family may be re-declared. Each
// series of a histogram family must list its buckets in increasing le
// order up to +Inf, and its +Inf bucket must equal its _count. It
// returns every sample. This is the validation gate the daemon's
// /metrics endpoint is held to in CI.
func ParsePrometheusText(data []byte) ([]PromSample, error) {
	var out []PromSample
	typed := map[string]string{} // family → its TYPE
	sampled := map[string]bool{} // families with at least one sample
	hists := map[string]*promHist{}
	var histOrder []string
	validTypes := map[string]bool{
		"counter": true, "gauge": true, "histogram": true,
		"summary": true, "untyped": true,
	}
	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && (fields[1] == "TYPE" || fields[1] == "HELP") {
				if len(fields) < 3 {
					return nil, fmt.Errorf("prom: line %d: %s without a metric name", lineNo, fields[1])
				}
				if !validPromName(fields[2]) {
					return nil, fmt.Errorf("prom: line %d: invalid metric name %q", lineNo, fields[2])
				}
				if fields[1] == "TYPE" {
					if len(fields) != 4 || !validTypes[fields[3]] {
						return nil, fmt.Errorf("prom: line %d: invalid TYPE line %q", lineNo, line)
					}
					if typed[fields[2]] != "" {
						return nil, fmt.Errorf("prom: line %d: duplicate TYPE for %q", lineNo, fields[2])
					}
					if sampled[fields[2]] {
						return nil, fmt.Errorf("prom: line %d: TYPE for %q after its samples", lineNo, fields[2])
					}
					typed[fields[2]] = fields[3]
				}
			}
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("prom: line %d: %v", lineNo, err)
		}
		fam := familyOf(s.Name)
		sampled[fam] = true
		if typed[fam] == "histogram" && s.Name != fam {
			key := fam + "{" + otherLabels(s.Labels, "le") + "}"
			h := hists[key]
			if h == nil {
				h = &promHist{lastLe: math.Inf(-1)}
				hists[key] = h
				histOrder = append(histOrder, key)
			}
			if err := h.note(s); err != nil {
				return nil, fmt.Errorf("prom: line %d: %s: %v", lineNo, key, err)
			}
		}
		out = append(out, s)
	}
	for _, key := range histOrder {
		h := hists[key]
		switch {
		case !h.hasInf:
			return nil, fmt.Errorf("prom: histogram %s has no +Inf bucket", key)
		case !h.hasCount || h.count != h.inf:
			return nil, fmt.Errorf("prom: histogram %s: +Inf bucket %g, _count %g", key, h.inf, h.count)
		}
	}
	return out, nil
}

// promHist is what the parser tracks of one histogram series.
type promHist struct {
	lastLe           float64 // -Inf before the first bucket
	inf, count       float64
	hasInf, hasCount bool
}

// note takes in one _bucket, _sum or _count sample of the series.
func (h *promHist) note(s PromSample) error {
	switch {
	case strings.HasSuffix(s.Name, "_bucket"):
		le, err := parsePromValue(s.Labels["le"])
		if err != nil || math.IsNaN(le) {
			return fmt.Errorf("bucket le=%q is not a bound", s.Labels["le"])
		}
		if le <= h.lastLe {
			return fmt.Errorf("bucket le=%q out of order after le=%s", s.Labels["le"], formatProm(h.lastLe))
		}
		h.lastLe = le
		if math.IsInf(le, 1) {
			h.inf, h.hasInf = s.Value, true
		}
	case strings.HasSuffix(s.Name, "_count"):
		h.count, h.hasCount = s.Value, true
	}
	return nil
}

// otherLabels renders every label but skip, sorted: the identity of a
// histogram series across its bucket lines.
func otherLabels(labels map[string]string, skip string) string {
	var parts []string
	for k, v := range labels {
		if k != skip {
			parts = append(parts, k+"="+strconv.Quote(v))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// familyOf maps a sample name onto the family its TYPE line declares
// (histogram/summary component suffixes fold into the base name).
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if b := strings.TrimSuffix(name, suf); b != name && b != "" {
			return b
		}
	}
	return name
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func parsePromSample(line string) (PromSample, error) {
	s := PromSample{}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	s.Name = line[:i]
	if !validPromName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end := strings.IndexByte(rest, '}')
		if end < 0 {
			return s, fmt.Errorf("unterminated label block")
		}
		labels, err := parsePromLabels(rest[1:end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want value [timestamp] after %q, got %q", s.Name, rest)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return s, err
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("invalid timestamp %q", fields[1])
		}
	}
	return s, nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid value %q", s)
	}
	return v, nil
}

func parsePromLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=' in %q", s[i:])
		}
		name := s[i : i+eq]
		if !validLabelName(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, fmt.Errorf("label %s: value not quoted", name)
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("label %s: dangling escape", name)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("label %s: invalid escape \\%c", name, s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("label %s: unterminated value", name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("duplicate label %q", name)
		}
		out[name] = val.String()
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Errorf("label %s: want ',' or end, got %q", name, s[i:])
			}
			i++
		}
	}
	return out, nil
}
