package main

import (
	"fmt"
	"time"
)

// verificationStages are the obs stages below the library, in the
// order an open runs them. With the library's own span they are the
// verification layers; every other span — the benchmark's own, the HTTP
// hops, the cluster stage — is the serving form's self time.
var verificationStages = []string{"parse", "c14n", "dectrans", "digest", "signature", "decrypt"}

// perLayer computes the per-layer metrics of a traced run. Stage self
// times and cache counters cover the traced window: the set-up opens
// plus the traced slices. Runtime costs come from the untraced slices
// of the same run, and the layer replay from the workload's corpus.
func (r *runner) perLayer(m map[string]metric, ph *phase, firstMeasured uint64) error {
	pr := r.tr.assemble(0)
	opens := float64(pr.opens)
	if opens == 0 {
		return errNoSamples
	}
	form := pr.total - pr.self["library"]
	for _, st := range verificationStages {
		form -= pr.self[st]
		m["stage."+st+"_us"] = metric{us(pr.self[st]) / opens, "us"}
	}
	m["stage.library_self_us"] = metric{us(pr.self["library"]) / opens, "us"}
	m["stage.form_self_us"] = metric{us(form) / opens, "us"}
	m["form.span_us"] = metric{us(pr.openTime) / opens, "us"}

	hit, miss := float64(r.tr.counter("library.hit")), float64(r.tr.counter("library.miss"))
	wait := float64(r.tr.counter("library.singleflight_wait"))
	m["library.hit_ratio"] = metric{ratio(hit, hit+miss+wait), "ratio"}
	m["library.miss_per_open"] = metric{miss / opens, "count/open"}
	m["library.evict_per_open"] = metric{float64(r.tr.counter("library.evict")) / opens, "count/open"}
	m["library.singleflight_wait_per_open"] = metric{wait / opens, "count/open"}
	m["library.resident_bytes"] = metric{float64(r.sys.lib.SizeBytes()), "B"}
	m["library.resident_entries"] = metric{float64(r.sys.lib.Len()), "count"}

	colds := float64(r.tr.colds.Load())
	var edgeHit, edgeRecords, originRecords float64
	if len(r.sys.edges) > 0 {
		edgeHit = 1 - colds/float64(r.tr.opens.Load())
		for _, e := range r.sys.edges {
			edgeRecords += float64(e.Records())
		}
		originRecords = float64(r.sys.origin.Records())
	}
	m["cluster.hit_ratio"] = metric{edgeHit, "ratio"}
	m["cluster.forward_per_cold"] = metric{ratio(float64(r.tr.counter("cluster.forward")), colds), "count/cold"}
	m["cluster.fill_per_cold"] = metric{ratio(float64(r.tr.counter("cluster.fill")), colds), "count/cold"}
	m["cluster.origin_verify_per_cold"] = metric{ratio(float64(r.tr.counter("cluster.origin_verify")), colds), "count/cold"}
	m["cluster.edge_records"] = metric{edgeRecords, "count"}
	m["cluster.origin_records"] = metric{originRecords, "count"}

	var mallocs, allocBytes, gcs, pauseNs uint64
	var untracedOpens int
	var thrOn, thrOff []float64
	for _, s := range ph.slices {
		if s.traced {
			thrOn = append(thrOn, s.throughput())
			continue
		}
		thrOff = append(thrOff, s.throughput())
		untracedOpens += s.opens + s.controls
		mallocs += s.mem.Mallocs
		allocBytes += s.mem.TotalAlloc
		gcs += uint64(s.mem.NumGC)
		pauseNs += s.mem.PauseTotalNs
	}
	u := float64(max(untracedOpens, 1))
	m["runtime.allocs_per_open"] = metric{float64(mallocs) / u, "allocs/open"}
	m["runtime.alloc_kib_per_open"] = metric{float64(allocBytes) / 1024 / u, "KiB/open"}
	m["runtime.gc_cycles_per_kopen"] = metric{float64(gcs) * 1000 / u, "gc/kopen"}
	m["runtime.gc_pause_us_per_open"] = metric{float64(pauseNs) / 1e3 / u, "us/open"}
	m["gen.lag_p99_us"] = metric{us(ph.lag.quantile(0.99)), "us"}
	m["trace.overhead_pct"] = metric{(median(thrOff)/median(thrOn) - 1) * 100, "%"}

	costs, err := replay(r.p, time.Duration(float64(ph.slices[0].elapsed)/8))
	if err != nil {
		return err
	}
	m["xmlstream.tokenize_ns_per_kib"] = metric{costs["xmlstream.tokenize"].perKiB, "ns/KiB"}
	m["xmlstream.allocs_per_kib"] = metric{costs["xmlstream.tokenize"].allocsKiB, "allocs/KiB"}
	m["xmldom.build_ns_per_kib"] = metric{costs["xmldom.build"].perKiB, "ns/KiB"}
	m["xmldom.allocs_per_kib"] = metric{costs["xmldom.build"].allocsKiB, "allocs/KiB"}
	m["c14n.stream_ns_per_kib"] = metric{costs["c14n.stream"].perKiB, "ns/KiB"}
	m["c14n.dom_ns_per_kib"] = metric{costs["c14n.dom"].perKiB, "ns/KiB"}
	m["library.key_ns_per_kib"] = metric{costs["library.key"].perKiB, "ns/KiB"}
	m["dectrans.us_per_doc"] = metric{costs["dectrans"].perDoc, "us/doc"}
	m["xmldsig.verify_us_per_doc"] = metric{costs["xmldsig.verify"].perDoc, "us/doc"}
	m["xmlenc.decrypt_us_per_doc"] = metric{costs["xmlenc.decrypt"].perDoc, "us/doc"}
	m["disc.decode_us_per_doc"] = metric{costs["disc.decode"].perDoc, "us/doc"}

	// How much of the open span the verification stages explain, over
	// the measured slices alone (the set-up fills excluded).
	mp := r.tr.assemble(firstMeasured)
	var below time.Duration
	for _, st := range verificationStages {
		below += mp.self[st]
	}
	fmt.Printf("  traced: %d opens (%d in measured slices); there the verification stages are %.1f%% of the open span, parse alone %.1f%%\n",
		pr.opens, mp.opens, 100*ratio(float64(below), float64(mp.openTime)), 100*ratio(float64(mp.self["parse"]), float64(mp.openTime)))
	for _, st := range append(append([]string(nil), verificationStages...), "library", spanOpen, spanHTTPClient, spanHTTPServer, "cluster") {
		if pr.inclusive[st] > 0 {
			fmt.Printf("    %-12s self %9.1f us/open  span %9.1f us/open\n", st, us(pr.self[st])/opens, us(pr.inclusive[st])/opens)
		}
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
