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
// strict parser of the same format used by tests and the load harness
// to validate a scrape.
//
// Label convention: registry metric names may carry a Prometheus-style
// label suffix, e.g.
//
//	rec.Add(`jobs_total{state="done"}`, 1)
//
// The exporter splits the base name from the label block, sanitizes the
// base (dots and other invalid characters become underscores), groups
// all series of one base under a single # TYPE line and emits samples
// in sorted label order. Names without a label block export unlabeled.

// WritePrometheus renders the recorder's counters, set gauges and
// histograms as Prometheus text: counters as counters, gauges as
// gauges, and histograms as classic histograms (<name>_bucket{le="..."}
// / _sum / _count) plus computed-quantile gauge companions <name>_p50 /
// _p95 / _p99. A nil recorder writes nothing. Spans are not exported —
// scrape endpoints expose metrics, trace timelines travel via
// WriteChromeTrace.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	fams := map[string]*promFamily{}
	add := func(name, typ, suffix string, extraLabels string, v float64) {
		base, labels := splitSeries(name)
		base = promName(base) + suffix
		f := fams[base]
		if f == nil {
			f = &promFamily{name: base, typ: typ}
			fams[base] = f
		}
		f.samples = append(f.samples, promLine(base, joinLabels(labels, extraLabels), v))
	}
	m := r.snapshot()
	for _, c := range m.counters {
		add(c.name, "counter", "", "", float64(c.val))
	}
	for _, g := range m.gauges {
		add(g.name, "gauge", "", "", g.val)
	}
	for _, h := range m.hists {
		s := h.val
		cum := int64(0)
		for i, c := range s.Counts {
			cum += c
			le := "+Inf"
			if i < len(s.Bounds) {
				le = formatProm(s.Bounds[i])
			}
			add(h.name, "histogram", "_bucket", `le="`+le+`"`, float64(cum))
		}
		add(h.name, "histogram", "_sum", "", s.Sum)
		add(h.name, "histogram", "_count", "", float64(s.Count))
		add(h.name, "gauge", "_p50", "", s.Quantile(0.50))
		add(h.name, "gauge", "_p95", "", s.Quantile(0.95))
		add(h.name, "gauge", "_p99", "", s.Quantile(0.99))
	}

	// Histogram series share one family: fold _bucket/_sum/_count into
	// the base name's TYPE declaration, as the exposition format wants.
	names := make([]string, 0, len(fams))
	grouped := map[string]*promFamily{}
	for _, f := range fams {
		base := f.name
		if f.typ == "histogram" {
			base = strings.TrimSuffix(base, "_bucket")
			base = strings.TrimSuffix(base, "_sum")
			base = strings.TrimSuffix(base, "_count")
		}
		g := grouped[base]
		if g == nil {
			g = &promFamily{name: base, typ: f.typ}
			grouped[base] = g
			names = append(names, base)
		}
		g.samples = append(g.samples, f.samples...)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, n := range names {
		f := grouped[n]
		sort.Strings(f.samples)
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

// splitSeries splits a registry name into its base and the raw inner
// label block ("" when unlabeled). Malformed blocks stay in the base
// name and get sanitized away rather than emitting broken syntax.
func splitSeries(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
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
// precede its family's samples, and no family may be re-declared. It
// returns every sample. This is the validation gate the daemon's
// /metrics endpoint is held to in CI.
func ParsePrometheusText(data []byte) ([]PromSample, error) {
	var out []PromSample
	typed := map[string]bool{}   // families with a TYPE line
	sampled := map[string]bool{} // families with at least one sample
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
					if typed[fields[2]] {
						return nil, fmt.Errorf("prom: line %d: duplicate TYPE for %q", lineNo, fields[2])
					}
					if sampled[fields[2]] {
						return nil, fmt.Errorf("prom: line %d: TYPE for %q after its samples", lineNo, fields[2])
					}
					typed[fields[2]] = true
				}
			}
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("prom: line %d: %v", lineNo, err)
		}
		sampled[familyOf(s.Name)] = true
		out = append(out, s)
	}
	return out, nil
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
