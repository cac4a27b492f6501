package analysis

// The concrete trust-boundary tables for the module, straight from the
// paper's Fig. 9 pipeline: manifest bytes from the disc image or a
// content server are untrusted until the Verifier (xmldsig) or the
// Verifier+Decryptor driver (core.Open*) has passed them.

const modulePath = "discsec"

var (
	pkgDisc    = modulePath + "/internal/disc"
	pkgServer  = modulePath + "/internal/server"
	pkgXMLDSig = modulePath + "/internal/xmldsig"
	pkgCore    = modulePath + "/internal/core"
	pkgMarkup  = modulePath + "/internal/markup"
	pkgPlayer  = modulePath + "/internal/player"
	pkgKeymgmt = modulePath + "/internal/keymgmt"
	pkgAccess  = modulePath + "/internal/access"
	pkgLibrary = modulePath + "/internal/library"
	pkgCluster = modulePath + "/internal/cluster"
)

// taintSources are reads crossing the trust boundary inward: disc image
// content, content-server fetches, and inbound HTTP request bodies.
var taintSources = []FuncRef{
	{Pkg: pkgDisc, Recv: "Image", Name: "Get"},
	{Pkg: pkgDisc, Recv: "Image", Name: "ReadIndexDocumentBytes"},
	{Pkg: pkgDisc, Recv: "Image", Name: "ResolveReference"},
	{Pkg: pkgServer, Recv: "Downloader", Name: "Fetch"},
	{Pkg: pkgServer, Recv: "Downloader", Name: "FetchContext"},
	{Pkg: pkgServer, Recv: "Downloader", Name: "FetchImage"},
	{Pkg: pkgServer, Recv: "Downloader", Name: "FetchImageContext"},
}

var networkTaintSources = []FuncRef{
	{Pkg: pkgServer, Recv: "Downloader", Name: "Fetch"},
	{Pkg: pkgServer, Recv: "Downloader", Name: "FetchContext"},
	{Pkg: pkgServer, Recv: "Downloader", Name: "FetchImage"},
	{Pkg: pkgServer, Recv: "Downloader", Name: "FetchImageContext"},
}

var requestBodySource = []FieldRef{
	{Pkg: "net/http", Type: "Request", Field: "Body"},
}

// taintSanitizers are the verified paths: a successful return means the
// data passed the Verifier (and, for core.Open*, the Decryptor).
var taintSanitizers = []FuncRef{
	{Pkg: pkgXMLDSig, Name: "Verify"},
	{Pkg: pkgXMLDSig, Name: "VerifyDocument"},
	{Pkg: pkgCore, Recv: "Opener", Name: "Open"},
	{Pkg: pkgCore, Recv: "Opener", Name: "OpenReader"},
	{Pkg: pkgCore, Recv: "Opener", Name: "VerifyDetached"},
	// The shared verification library: a cache hit is only ever a
	// previously verified verdict (fills run core.Opener.Open;
	// unsigned documents bypass the cache but still went through the
	// opener), so its serving entry points sanitize like core.Open*.
	{Pkg: pkgLibrary, Recv: "Library", Name: "OpenDocument"},
	{Pkg: pkgLibrary, Recv: "Library", Name: "OpenReader"},
	{Pkg: pkgLibrary, Recv: "Library", Name: "OpenDisc"},
	{Pkg: pkgLibrary, Recv: "Library", Name: "OpenTrack"},
	{Pkg: pkgLibrary, Recv: "Library", Name: "TrackXML"},
}

// executionSinks are where content becomes behavior: script evaluation
// and markup rendering in the Interactive Application Engine.
var executionSinks = []FuncRef{
	{Pkg: pkgMarkup, Recv: "Interp", Name: "Run"},
	{Pkg: pkgMarkup, Recv: "Interp", Name: "RunSource"},
	{Pkg: pkgMarkup, Recv: "Interp", Name: "Call"},
	{Pkg: pkgMarkup, Name: "ParseLayout"},
	{Pkg: pkgMarkup, Name: "ParseTiming"},
	{Pkg: pkgPlayer, Recv: "Session", Name: "RunApplication"},
}

// persistenceSinks are durable trust-relevant writes: the player's
// local store, disc-image persistence, and the PEM key store.
var persistenceSinks = []FuncRef{
	{Pkg: pkgDisc, Recv: "LocalStorage", Name: "Put"},
	{Pkg: pkgDisc, Recv: "Image", Name: "SaveFile"},
	{Pkg: pkgDisc, Recv: "Image", Name: "WriteIndex"},
	{Pkg: pkgKeymgmt, Name: "SaveIdentity"},
	{Pkg: pkgKeymgmt, Name: "SaveCertPEM"},
}

// Taintflow enforces verify-before-execute across the whole module: no
// path from a disc/network source to an execution sink may skip the
// Verifier.
var Taintflow = &Analyzer{
	Name:      "taintflow",
	Doc:       "unverified disc/network content must pass the Verifier (core.Open*/xmldsig.Verify*) before reaching execution sinks",
	RunModule: func(pass *ModulePass) { runTaint(pass, taintflowSpec) },
}

var taintflowSpec = &TaintSpec{
	Sources:      taintSources,
	FieldSources: requestBodySource,
	Sanitizers:   taintSanitizers,
	Sinks:        executionSinks,
	SinkMsg:      "unverified disc/network content reaches execution sink %s without passing the Verifier (core.Open*/xmldsig.Verify*)",
	ForwardMsg:   "unverified disc/network content flows into %s, which forwards it to an execution sink; verify it first (core.Open*/xmldsig.Verify*)",
}

// UnverifiedWrite enforces verify-before-persist for network bytes:
// fetched content must not reach durable stores (local storage, disc
// image files, the key store) unverified. Disc reads are deliberately
// not sources here — loading re-verifies them — so authoring tools can
// rewrite their own masters.
var UnverifiedWrite = &Analyzer{
	Name:      "unverifiedwrite",
	Doc:       "unverified network bytes must not reach disc-image or key-store persistence",
	RunModule: func(pass *ModulePass) { runTaint(pass, unverifiedWriteSpec) },
}

var unverifiedWriteSpec = &TaintSpec{
	Sources:      networkTaintSources,
	FieldSources: requestBodySource,
	Sanitizers:   taintSanitizers,
	Sinks:        persistenceSinks,
	SinkMsg:      "unverified network bytes reach persistent store %s; verify before persisting (core.Open*/xmldsig.Verify*)",
	ForwardMsg:   "unverified network bytes flow into %s, which persists them; verify before persisting (core.Open*/xmldsig.Verify*)",
}
