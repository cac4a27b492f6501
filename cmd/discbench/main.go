// Command discbench regenerates every experiment table of the
// reproduction (DESIGN.md index E1–E7 and C1) and prints them in the
// form EXPERIMENTS.md records.
//
// Usage:
//
//	discbench [-table all|e1|e2|e3|e4|e5|e6|e7|c1] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"discsec/internal/c14n"
	"discsec/internal/experiments"
	"discsec/internal/workload"
)

var (
	tableFlag = flag.String("table", "all", "experiment table to run (all, e1..e7, c1)")
	quickFlag = flag.Bool("quick", false, "fewer iterations (smoke mode)")
)

func main() {
	flag.Parse()
	run := map[string]func(){
		"e1": tableE1, "e2": tableE2, "e3": tableE3, "e4": tableE4,
		"e5": tableE5, "e6": tableE6, "e7": tableE7, "c1": tableC1,
	}
	if *tableFlag == "all" {
		for _, name := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "c1"} {
			run[name]()
		}
		return
	}
	fn, ok := run[*tableFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *tableFlag)
		os.Exit(2)
	}
	fn()
}

// measure runs op repeatedly until the time budget is consumed and
// returns the mean duration.
func measure(op func() error) time.Duration {
	budget := 400 * time.Millisecond
	if *quickFlag {
		budget = 40 * time.Millisecond
	}
	// Warm-up.
	if err := op(); err != nil {
		fmt.Fprintf(os.Stderr, "experiment operation failed: %v\n", err)
		os.Exit(1)
	}
	start := time.Now()
	iters := 0
	for time.Since(start) < budget {
		if err := op(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment operation failed: %v\n", err)
			os.Exit(1)
		}
		iters++
	}
	return time.Since(start) / time.Duration(iters)
}

func header(id, title string) {
	fmt.Printf("\n== %s: %s ==\n", id, title)
}

func tableE1() {
	header("E1", "package size overhead, XML security vs OMA DCF (paper §4 / ref [37]: 2.5–5.1x)")
	fmt.Printf("%-12s %12s %12s %8s\n", "payload", "xml-bytes", "dcf-bytes", "ratio")
	for _, n := range experiments.E1Payloads {
		payload := workload.Bytes(n, uint64(n))
		x, err := experiments.BuildXMLPackage(payload)
		if err != nil {
			fatal(err)
		}
		d, err := experiments.BuildDCFPackage(payload)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-12d %12d %12d %8.2f\n", n, len(x), len(d), float64(len(x))/float64(len(d)))
	}
}

func tableE2() {
	header("E2", "protect+unprotect throughput, XML vs DCF (paper §4: binary faster than text)")
	fmt.Printf("%-12s %14s %14s %8s\n", "payload", "xml", "dcf", "xml/dcf")
	for _, n := range []int{1024, 16384, 262144} {
		payload := workload.Bytes(n, uint64(n))
		xmlTime := measure(func() error {
			pkg, err := experiments.BuildXMLPackage(payload)
			if err != nil {
				return err
			}
			_, err = experiments.OpenXMLPackage(pkg)
			return err
		})
		dcfTime := measure(func() error {
			pkg, err := experiments.BuildDCFPackage(payload)
			if err != nil {
				return err
			}
			_, err = experiments.OpenDCFPackage(pkg)
			return err
		})
		fmt.Printf("%-12d %14s %14s %8.1f\n", n, xmlTime, dcfTime, float64(xmlTime)/float64(dcfTime))
	}
}

func tableE3() {
	header("E3", "signing/verification by granularity (paper §5.3–5.4, Figs. 4–5)")
	fmt.Printf("%-10s %14s %14s %14s\n", "level", "sign-only", "verify-only", "doc-bytes")
	for _, target := range experiments.GranularityTargets() {
		raw, err := experiments.SignAtLevel(target)
		if err != nil {
			fatal(err)
		}
		signed, err := experiments.ParsedSignedAtLevel(target)
		if err != nil {
			fatal(err)
		}
		signTime := measure(func() error {
			return experiments.SignOnlyAtLevel(target)
		})
		verifyTime := measure(func() error {
			return experiments.VerifyOnly(signed)
		})
		fmt.Printf("%-10s %14s %14s %14d\n", target.Name, signTime, verifyTime, len(raw))
	}
	fmt.Println("(sign-only excludes parse/serialize; verify-only excludes parse)")
}

func tableE4() {
	header("E4", "signature forms (paper Fig. 6: enveloped / enveloping / detached)")
	fmt.Printf("%-12s %14s %14s\n", "form", "sign+verify", "sig-doc-bytes")
	for _, form := range []experiments.SignatureForm{
		experiments.FormEnveloped, experiments.FormEnveloping, experiments.FormDetached,
	} {
		pkg, ext, err := experiments.SignForm(form)
		if err != nil {
			fatal(err)
		}
		t := measure(func() error {
			p2, e2, err := experiments.SignForm(form)
			if err != nil {
				return err
			}
			return experiments.VerifyForm(form, p2, e2)
		})
		_ = ext
		fmt.Printf("%-12s %14s %14d\n", form, t, len(pkg))
	}
}

func tableE5() {
	header("E5", "full vs partial encryption (paper §4, Figs. 7–8: encrypt only the scores)")
	fmt.Printf("%-8s %14s %14s %14s %14s\n", "scores", "enc-full", "enc-partial", "dec-full", "dec-partial")
	for _, entries := range []int{8, 64, 256} {
		encFull := measure(func() error {
			return experiments.EncryptFull(experiments.GameDocument(entries))
		})
		encPartial := measure(func() error {
			return experiments.EncryptScoresOnly(experiments.GameDocument(entries))
		})
		fullDoc := experiments.GameDocument(entries)
		if err := experiments.EncryptFull(fullDoc); err != nil {
			fatal(err)
		}
		fullRaw := fullDoc.Bytes()
		partDoc := experiments.GameDocument(entries)
		if err := experiments.EncryptScoresOnly(partDoc); err != nil {
			fatal(err)
		}
		partRaw := partDoc.Bytes()
		decFull := measure(func() error { return experiments.DecryptAllIn(fullRaw) })
		decPartial := measure(func() error { return experiments.DecryptAllIn(partRaw) })
		fmt.Printf("%-8d %14s %14s %14s %14s\n", entries, encFull, encPartial, decFull, decPartial)
	}

	fmt.Println("\nremainder sweep (scores fixed at 16, growing unencrypted markup+code):")
	fmt.Printf("%-10s %14s %14s %14s %14s %10s\n", "script-stmts", "enc-full", "enc-partial", "dec-full", "dec-partial", "dec-ratio")
	for _, stmts := range []int{50, 200, 800} {
		encFull := measure(func() error {
			return experiments.EncryptFull(experiments.GameDocumentSized(16, stmts))
		})
		encPartial := measure(func() error {
			return experiments.EncryptScoresOnly(experiments.GameDocumentSized(16, stmts))
		})
		fullDoc := experiments.GameDocumentSized(16, stmts)
		if err := experiments.EncryptFull(fullDoc); err != nil {
			fatal(err)
		}
		fullRaw := fullDoc.Bytes()
		partDoc := experiments.GameDocumentSized(16, stmts)
		if err := experiments.EncryptScoresOnly(partDoc); err != nil {
			fatal(err)
		}
		partRaw := partDoc.Bytes()
		decFull := measure(func() error { return experiments.DecryptAllIn(fullRaw) })
		decPartial := measure(func() error { return experiments.DecryptAllIn(partRaw) })
		fmt.Printf("%-10d %14s %14s %14s %14s %10.2f\n",
			stmts, encFull, encPartial, decFull, decPartial, float64(decFull)/float64(decPartial))
	}
}

func tableE6() {
	header("E6", "end-to-end pipeline (paper §7, Fig. 9)")
	authorTime := measure(func() error {
		_, err := experiments.AuthorPipeline()
		return err
	})
	art, err := experiments.AuthorPipeline()
	if err != nil {
		fatal(err)
	}
	playerTime := measure(func() error {
		_, err := experiments.PlayerPipeline(art.PackedImage)
		return err
	})
	fmt.Printf("%-28s %14s\n", "stage", "time")
	fmt.Printf("%-28s %14s\n", "author (sign+encrypt+pack)", authorTime)
	fmt.Printf("%-28s %14s\n", "player (verify+decrypt+run)", playerTime)
	fmt.Printf("%-28s %14d\n", "image bytes", len(art.PackedImage))
}

func tableE7() {
	header("E7", "player cold start by protection configuration (paper §8 feasibility)")
	fmt.Printf("%-22s %14s %14s\n", "configuration", "startup", "image-bytes")
	var clear time.Duration
	for _, cfg := range experiments.StartupConfigs() {
		packed, err := experiments.BuildStartupImage(cfg)
		if err != nil {
			fatal(err)
		}
		require := cfg != experiments.StartupClear
		t := measure(func() error {
			return experiments.RunStartup(packed, require)
		})
		if cfg == experiments.StartupClear {
			clear = t
		}
		fmt.Printf("%-22s %14s %14d\n", cfg, t, len(packed))
	}
	if clear > 0 {
		fmt.Printf("(clear baseline: %s)\n", clear)
	}
}

func tableC1() {
	header("C1", "canonicalization throughput (paper §5.4: XML-C14N)")
	fmt.Printf("%-22s %12s %14s\n", "mode", "doc-bytes", "time")
	for _, size := range []int{1 << 10, 16 << 10, 256 << 10} {
		doc := workload.XMLDocument(size, uint64(size))
		root := doc.Root()
		for _, mode := range []struct {
			name string
			opts c14n.Options
		}{
			{"inclusive", c14n.Options{}},
			{"exclusive", c14n.Options{Exclusive: true}},
		} {
			t := measure(func() error {
				_, err := c14n.Canonicalize(root, mode.opts)
				return err
			})
			fmt.Printf("%-22s %12d %14s\n", mode.name, size, t)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
