// Package analysis is discvet: a project-specific static-analysis
// framework for the XML-security stack, built only on the standard
// library (go/ast, go/parser, go/token, go/types).
//
// The framework has three parts: a loader that parses and type-checks
// the module's packages (driver.go), a suppression layer that honours
// `//discvet:ignore <rule>` comments (suppress.go), and a registry of
// project-specific analyzers. Each analyzer enforces one invariant the
// paper's Verifier/Decryptor threat model depends on:
//
//   - cryptocompare: digest/MAC/signature/secret comparisons in the
//     crypto packages must go through crypto/subtle (or hmac.Equal),
//     never bytes.Equal, ==, or reflect.DeepEqual.
//   - weakrand: math/rand must never produce key material, IVs,
//     nonces, or session tokens.
//   - errwrap: fmt.Errorf with an error argument must wrap with %w so
//     sentinel checks (errors.Is/As) keep working across layers.
//   - xmlparse: untrusted XML is decoded only by the hardened parser
//     in internal/xmldom; direct encoding/xml use elsewhere reopens
//     XXE/wrapping attack surface.
//   - locksafety: no lock-by-value copies, and no return while a
//     sync.Mutex/RWMutex is held by a defer-less Lock. Since v3 the
//     held-lock tracking comes from the shared lockset engine
//     (locksets.go) that also powers lockorder.
//   - httpclient: the networked packages (server, keymgmt, player)
//     must never use http.DefaultClient or a zero-Timeout
//     http.Client; every remote call needs a deadline so failures
//     enter the resilience retry/degrade path.
//   - obsctx: exported pipeline entry points (player, core, server)
//     that accept a context.Context must propagate it to the
//     context-aware functions they call; a dropped ctx severs both
//     cancellation and the observability recorder it carries.
//   - taintflow: interprocedural verify-before-execute — no dataflow
//     path from a disc/network source to script execution or markup
//     rendering may skip the Verifier (core.Open*/xmldsig.Verify*).
//     Built on the module-wide call graph (callgraph.go) and taint
//     engine (taint.go).
//   - unverifiedwrite: unverified network bytes must not reach durable
//     trust-relevant stores (local storage, disc-image persistence,
//     the PEM key store).
//   - auditpath: deny/fail-closed branches in core, access, and player
//     must emit an obs audit event before returning, so the audit ring
//     records every security refusal.
//   - lockorder: interprocedural deadlock analysis — per-function
//     lockset summaries solved bottom-up over the call graph (once per
//     run, shared with locksafety), a module-wide
//     lock-acquisition-order graph whose cycles are potential
//     deadlocks, and no indefinite wait (channel op, blocking sink)
//     while a mutex is held (locksets.go, lockorder.go).
//   - goroutineleak: every `go` statement needs a termination signal
//     reachable from the spawn site — ctx.Done, a channel the spawner
//     closes, or a WaitGroup join.
//   - hotpathalloc: functions annotated //discvet:hotpath (and their
//     static callees, up to a //discvet:coldpath boundary) must not
//     allocate: no fmt calls, map/slice literals, unpreallocated
//     append, capturing closures, or interface boxing.
//   - readerfirst: payloads buffered with io.ReadAll must not be
//     re-wrapped in a bytes/strings reader just to call a reader
//     verification entry (core.Opener.OpenReader, library and edge
//     OpenReader, player LoadFrom, xmldom.Parse), which buffers it
//     again; pass the original reader through, or use the []byte API
//     form.
//   - poolescape: values from sync.Pool.Get (or pooled module helpers,
//     found interprocedurally) must not be used, aliased, or returned
//     after their Put, and never Put twice on any path. Built on the
//     SSA-lite value-flow layer (ssa.go, flow.go).
//   - errdominate: the non-error results of core.Open*,
//     xmldsig.Verify*/Digest*, library.Open*, and xmlenc.Decrypt* may
//     only be used on paths dominated by an err == nil check of the
//     producing call's error — the fail-closed discipline the paper's
//     Verifier depends on.
//   - onceonly: one-shot readers (request bodies, OpenReader-family
//     arguments) must not be consumed twice or re-wrapped after a
//     partial read; both silently verify the wrong bytes.
//
// Diagnostics carry file:line:col positions. A finding can be
// suppressed with a justified comment on the same line or the line
// directly above:
//
//	//discvet:ignore cryptocompare public value, not secret-dependent
//
// A directive naming a rule that does not exist — or that fires no
// finding on that line under the selected rules — is itself reported
// (as discvet / uselessignore), so suppressions cannot rot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"
)

// runParallelism bounds the analyzer worker pool: enough to keep the
// cores busy, capped so a large machine does not thrash the type-info
// caches.
func runParallelism() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Analyzer is one named rule. Per-package rules set Run and inspect a
// single package via its Pass; module-level rules (the interprocedural
// dataflow rules) set RunModule and see every loaded package plus the
// shared call graph at once. Exactly one of Run/RunModule is set.
type Analyzer struct {
	// Name identifies the rule in output and in ignore directives.
	Name string
	// Doc is a one-line description shown by `discvet -rules`.
	Doc string
	// Run executes the rule against one package.
	Run func(*Pass)
	// RunModule executes the rule once over the whole package set.
	RunModule func(*ModulePass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package import path (e.g. discsec/internal/disc).
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// ModulePass carries the whole loaded package set through one
// module-level analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	// Graph is the module-wide call graph, shared between module-level
	// analyzers in one Run.
	Graph *CallGraph

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding with a resolved source position.
type Diagnostic struct {
	Rule    string
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Rule, d.Message)
}

// Analyzers returns the full registry, in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		CryptoCompare,
		WeakRand,
		ErrWrap,
		XMLParse,
		LockSafety,
		HTTPClient,
		ObsCtx,
		Taintflow,
		UnverifiedWrite,
		AuditPath,
		LockOrder,
		GoroutineLeak,
		HotPathAlloc,
		ReaderFirst,
		PoolEscape,
		ErrDominate,
		OnceOnly,
	}
}

// ByName resolves a registered analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the analyzers over the packages and returns the
// surviving diagnostics: suppressed findings are dropped, ignore
// directives naming unknown rules are reported, and directives that
// suppress nothing under the selected rules are reported as
// uselessignore. The result is sorted by position then rule.
//
// Analyzer execution is parallel under a bounded worker pool: every
// (package, per-package rule) pair and every module rule is an
// independent unit writing into its own diagnostic slot, and the slots
// are concatenated in registry order before the final sort — so the
// output is byte-for-byte identical to the sequential driver's.
// Loading and type-checking stay sequential in the Loader; analyzers
// only read the shared type information, which is what makes the
// fan-out safe.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	type unit struct {
		run   func(diags *[]Diagnostic)
		diags []Diagnostic
	}
	var units []*unit
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pkg, a := pkg, a
			units = append(units, &unit{run: func(diags *[]Diagnostic) {
				a.Run(&Pass{
					Analyzer: a,
					Fset:     pkg.Fset,
					Path:     pkg.Path,
					Files:    pkg.Files,
					Pkg:      pkg.Types,
					Info:     pkg.Info,
					diags:    diags,
				})
			}})
		}
	}
	var graph *CallGraph
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if graph == nil {
			graph = BuildCallGraph(pkgs)
		}
		a, graph := a, graph
		units = append(units, &unit{run: func(diags *[]Diagnostic) {
			mp := &ModulePass{Analyzer: a, Pkgs: pkgs, Graph: graph, diags: diags}
			if len(pkgs) > 0 {
				mp.Fset = pkgs[0].Fset
			}
			a.RunModule(mp)
		}})
	}

	sem := make(chan struct{}, runParallelism())
	var wg sync.WaitGroup
	for _, u := range units {
		u := u
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			u.run(&u.diags)
		}()
	}
	wg.Wait()

	var raw []Diagnostic
	for _, u := range units {
		raw = append(raw, u.diags...)
	}
	diags := applySuppressions(pkgs, analyzers, raw)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}
