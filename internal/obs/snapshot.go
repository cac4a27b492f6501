package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// StageStat summarizes one stage's duration histogram.
type StageStat struct {
	Stage string        `json:"stage"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// Mean is the average duration per sample.
func (s StageStat) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// CounterStat is one named counter's current value.
type CounterStat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time copy of a Recorder's aggregates, safe to
// render or serialize after the recorder moves on.
type Snapshot struct {
	Stages   []StageStat   `json:"stages"`
	Counters []CounterStat `json:"counters"`
	Audit    []AuditEvent  `json:"audit"`
	// AuditDropped counts audit events evicted from the ring.
	AuditDropped uint64 `json:"audit_dropped,omitempty"`
}

// Snapshot captures the recorder's current aggregates, sorted by stage
// and counter name. A nil recorder yields an empty snapshot.
func (r *Recorder) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.hists.Range(func(stage string, h *Histogram) bool {
		snap.Stages = append(snap.Stages, h.stat(stage))
		return true
	})
	sort.Slice(snap.Stages, func(i, j int) bool { return snap.Stages[i].Stage < snap.Stages[j].Stage })
	r.counters.Range(func(name string, c *atomic.Int64) bool {
		snap.Counters = append(snap.Counters, CounterStat{Name: name, Value: c.Load()})
		return true
	})
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	snap.Audit = r.AuditTrail()
	r.auditMu.Lock()
	snap.AuditDropped = r.auditDropped
	r.auditMu.Unlock()
	return snap
}

// StageTable renders the per-stage histogram summary as an aligned
// text table (the `-metrics` output of discplayer).
func (s Snapshot) StageTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %12s %12s %12s %12s %12s %12s\n",
		"stage", "count", "total", "mean", "p50", "p90", "p99", "max")
	for _, st := range s.Stages {
		fmt.Fprintf(&b, "%-12s %8d %12s %12s %12s %12s %12s %12s\n",
			st.Stage, st.Count,
			fmtDur(st.Total), fmtDur(st.Mean()),
			fmtDur(st.P50), fmtDur(st.P90), fmtDur(st.P99), fmtDur(st.Max))
	}
	if len(s.Counters) > 0 {
		fmt.Fprintf(&b, "\n%-32s %12s\n", "counter", "value")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "%-32s %12d\n", c.Name, c.Value)
		}
	}
	return b.String()
}

// fmtDur rounds durations for table display.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(10 * time.Nanosecond).String()
	}
}

// WriteMetrics writes the snapshot in a flat, line-oriented text
// exposition (served by the ContentServer's /metricsz endpoint):
//
//	discsec_counter{name="http.requests"} 42
//	discsec_stage_count{stage="c14n"} 128
//	discsec_stage_total_seconds{stage="c14n"} 0.003517
//	discsec_stage_seconds{stage="c14n",quantile="0.5"} 0.000016
func (s Snapshot) WriteMetrics(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "discsec_counter{name=%q} %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, st := range s.Stages {
		if _, err := fmt.Fprintf(w, "discsec_stage_count{stage=%q} %d\n", st.Stage, st.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "discsec_stage_total_seconds{stage=%q} %.6f\n", st.Stage, st.Total.Seconds()); err != nil {
			return err
		}
		for _, q := range []struct {
			label string
			v     time.Duration
		}{{"0.5", st.P50}, {"0.9", st.P90}, {"0.99", st.P99}} {
			if _, err := fmt.Fprintf(w, "discsec_stage_seconds{stage=%q,quantile=%q} %.6f\n", st.Stage, q.label, q.v.Seconds()); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "discsec_audit_events %d\n", len(s.Audit))
	return err
}
