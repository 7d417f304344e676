package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PromWriter writes Prometheus text exposition format (version 0.0.4)
// and latches the first write error. It is the one exposition writer:
// WriteMetricsProm emits a single collector through it, and the
// registry exporter of internal/obsrv emits the process-wide families.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a writer emitting to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first error a write returned, if any; once set,
// later calls write nothing.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PromLabel renders one name="value" label pair, escaping backslash,
// double quote and newline in the value as the format requires. Join
// several pairs with commas.
func PromLabel(name, value string) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteString(`="`)
	for _, r := range value {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Header emits the HELP/TYPE preamble of one metric family.
func (p *PromWriter) Header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample emits one sample line; labels is the rendered label set
// without braces ("" for none).
func (p *PromWriter) Sample(name, labels string, v float64) {
	if labels == "" {
		p.printf("%s %s\n", name, promFloat(v))
		return
	}
	p.printf("%s{%s} %s\n", name, labels, promFloat(v))
}

// Histogram emits one series of a histogram family: cumulative _bucket
// samples (le ascending, +Inf last), then _sum and _count. counts[i]
// is the number of observations in (bounds[i-1], bounds[i]]; count is
// the total, including those above the last bound.
func (p *PromWriter) Histogram(name, labels string, bounds []float64, counts []uint64, sum float64, count uint64) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, bound := range bounds {
		cum += counts[i]
		p.printf("%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, promFloat(bound), cum)
	}
	p.printf("%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, count)
	p.Sample(name+"_sum", labels, sum)
	p.printf("%s_count{%s} %d\n", name, labels, count)
}
