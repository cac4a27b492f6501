package analysis

// Declarative tables for the v4 value-flow rules (poolescape,
// errdominate, onceonly), mirroring taintrules.go and lockrules.go:
// the engines in ssa.go/flow.go are generic, the project knowledge
// lives here.

import (
	"go/types"
)

// --- poolescape ------------------------------------------------------

// poolGetFuncs produce pool-owned values: using one after it has been
// Put back is an aliasing bug (the pool may have handed it to another
// goroutine). Module helpers that wrap these (xmlstream's pooled
// parser, any future bufpool) are discovered through flow summaries,
// not listed here. A parsed document's nodes live in a pooled arena
// until Document.Release, so the xmldom parsers are producers too.
var poolGetFuncs = []FuncRef{
	{Pkg: "sync", Recv: "Pool", Name: "Get"},
	{Pkg: pkgXMLDOM, Name: "Parse"},
	{Pkg: pkgXMLDOM, Name: "ParseBytes"},
	{Pkg: pkgXMLDOM, Name: "ParseString"},
	{Pkg: pkgXMLDOM, Name: "ParseWithOptions"},
}

// poolPutFuncs release pool-owned values: Pool.Put its argument,
// Document.Release its receiver (see releasedOperand).
var poolPutFuncs = []FuncRef{
	{Pkg: "sync", Recv: "Pool", Name: "Put"},
	{Pkg: pkgXMLDOM, Recv: "Document", Name: "Release"},
}

// poolCopyFuncs return a deep copy that shares no memory with the
// pooled value they are called on, so poolescape does not treat the
// result as read out of it: a clone of a document outlives the
// document's Release.
var poolCopyFuncs = []FuncRef{
	{Pkg: pkgXMLDOM, Recv: "Document", Name: "Clone"},
	{Pkg: pkgXMLDOM, Recv: "Element", Name: "Clone"},
}

// --- errdominate -----------------------------------------------------

// errCheckedProducers are the verification and decryption entry points
// whose non-error results are only meaningful when the returned error
// is nil: an OpenResult from a failed Open, a VerifyResult from a
// failed Verify, or plaintext from a failed Decrypt must never be
// consulted. The rule demands every use of such a result be dominated
// by an err == nil check of the producing call's error.
var errCheckedProducers = []FuncRef{
	// The Verifier+Decryptor driver.
	{Pkg: pkgCore, Recv: "Opener", Name: "Open"},
	{Pkg: pkgCore, Recv: "Opener", Name: "OpenReader"},
	{Pkg: pkgCore, Recv: "Opener", Name: "OpenDocument"},
	{Pkg: pkgCore, Recv: "Opener", Name: "VerifyDetached"},
	{Pkg: pkgCore, Recv: "Opener", Name: "VerifyDetachedReader"},
	// The leaf verifier.
	{Pkg: pkgXMLDSig, Name: "Verify"},
	{Pkg: pkgXMLDSig, Name: "VerifyDocument"},
	// The shared verification library.
	{Pkg: pkgLibrary, Recv: "Library", Name: "OpenDocument"},
	{Pkg: pkgLibrary, Recv: "Library", Name: "OpenReader"},
	{Pkg: pkgLibrary, Recv: "Library", Name: "OpenDisc"},
	{Pkg: pkgLibrary, Recv: "Library", Name: "OpenTrack"},
	{Pkg: pkgLibrary, Recv: "Library", Name: "TrackXML"},
	// The Decryptor.
	{Pkg: pkgXMLEnc, Name: "DecryptOctets"},
	{Pkg: pkgXMLEnc, Name: "DecryptElement"},
	{Pkg: pkgXMLEnc, Name: "DecryptAll"},
	{Pkg: pkgXMLEnc, Name: "DecryptOctetsTo"},
}

var pkgXMLEnc = modulePath + "/internal/xmlenc"

// --- onceonly --------------------------------------------------------

// ReaderRef names a function that consumes or wraps an io.Reader
// argument. Arg indexes the *effective* argument list (method receiver
// first), matching funcParams/effectiveArgs; Arg -1 means every
// argument (io.MultiReader).
type ReaderRef struct {
	FuncRef
	Arg int
}

// oneShotFieldSources are struct fields whose reads yield one-shot
// readers: reading them twice streams the second consumer an empty (or
// worse, partially drained) document.
var oneShotFieldSources = []FieldRef{
	{Pkg: "net/http", Type: "Request", Field: "Body"},
}

// readerConsumers drain a reader to EOF (or treat what they read as the
// complete document — for a verification entry those are the same
// thing). Consuming an already consumed one-shot reader is a bug.
var readerConsumers = []ReaderRef{
	{FuncRef: FuncRef{Pkg: "io", Name: "ReadAll"}, Arg: 0},
	{FuncRef: FuncRef{Pkg: "io", Name: "Copy"}, Arg: 1},
	{FuncRef: FuncRef{Pkg: "io", Name: "CopyN"}, Arg: 1},
	{FuncRef: FuncRef{Pkg: "bytes", Recv: "Buffer", Name: "ReadFrom"}, Arg: 1},
	{FuncRef: FuncRef{Pkg: "encoding/json", Recv: "Decoder", Name: "Decode"}, Arg: 0},
	// The streaming verification entries: what they read IS the
	// document, so a partially drained or re-used reader verifies the
	// wrong bytes.
	{FuncRef: FuncRef{Pkg: pkgXMLStream, Name: "Parse"}, Arg: 0},
	{FuncRef: FuncRef{Pkg: pkgXMLDOM, Name: "Parse"}, Arg: 0},
	{FuncRef: FuncRef{Pkg: pkgXMLDOM, Name: "ParseWithOptions"}, Arg: 0},
	{FuncRef: FuncRef{Pkg: pkgCore, Recv: "Opener", Name: "OpenReader"}, Arg: 2},
	{FuncRef: FuncRef{Pkg: pkgCore, Recv: "Opener", Name: "VerifyDetachedReader"}, Arg: 2},
	{FuncRef: FuncRef{Pkg: pkgLibrary, Recv: "Library", Name: "OpenReader"}, Arg: 2},
	{FuncRef: FuncRef{Pkg: pkgPlayer, Recv: "Engine", Name: "LoadFrom"}, Arg: 2},
	{FuncRef: FuncRef{Pkg: modulePath, Recv: "Player", Name: "LoadFrom"}, Arg: 2},
	{FuncRef: FuncRef{Pkg: modulePath, Name: "ParseDocumentReader"}, Arg: 0},
}

// readerPartials read a prefix of the reader without claiming the rest:
// a later wrap or full consume would operate on a document missing its
// head.
var readerPartials = []ReaderRef{
	{FuncRef: FuncRef{Pkg: "io", Name: "ReadFull"}, Arg: 0},
	{FuncRef: FuncRef{Pkg: "io", Name: "ReadAtLeast"}, Arg: 0},
}

// readerWrappers return a new reader view over the argument: the result
// aliases the one-shot identity of what it wraps. Wrapping after any
// read has happened re-frames a partially drained stream as a whole
// document, which is the bug the rule exists for.
var readerWrappers = []ReaderRef{
	{FuncRef: FuncRef{Pkg: "net/http", Name: "MaxBytesReader"}, Arg: 1},
	{FuncRef: FuncRef{Pkg: "io", Name: "LimitReader"}, Arg: 0},
	{FuncRef: FuncRef{Pkg: "io", Name: "TeeReader"}, Arg: 0},
	{FuncRef: FuncRef{Pkg: "io", Name: "NopCloser"}, Arg: 0},
	{FuncRef: FuncRef{Pkg: "io", Name: "MultiReader"}, Arg: -1},
	{FuncRef: FuncRef{Pkg: "bufio", Name: "NewReader"}, Arg: 0},
	{FuncRef: FuncRef{Pkg: "bufio", Name: "NewReaderSize"}, Arg: 0},
	{FuncRef: FuncRef{Pkg: "bufio", Name: "NewScanner"}, Arg: 0},
	{FuncRef: FuncRef{Pkg: "encoding/json", Name: "NewDecoder"}, Arg: 0},
	{FuncRef: FuncRef{Pkg: "encoding/xml", Name: "NewDecoder"}, Arg: 0},
}

var (
	pkgXMLStream = modulePath + "/internal/xmlstream"
	pkgXMLDOM    = modulePath + "/internal/xmldom"
)

func readerConsumerFor(fn *types.Func) (ReaderRef, bool) { return readerRefFor(fn, readerConsumers) }
func readerPartialFor(fn *types.Func) (ReaderRef, bool)  { return readerRefFor(fn, readerPartials) }
func readerWrapperFor(fn *types.Func) (ReaderRef, bool)  { return readerRefFor(fn, readerWrappers) }

func readerRefFor(fn *types.Func, refs []ReaderRef) (ReaderRef, bool) {
	for _, r := range refs {
		if r.FuncRef.matches(fn) {
			return r, true
		}
	}
	return ReaderRef{}, false
}

// isOneShotReaderType reports whether t is an interface whose method
// set includes Read([]byte) (int, error) — io.Reader, io.ReadCloser,
// and friends. Concrete readers (bytes.Reader, os.File) are excluded:
// they are seekable or resettable, so re-reading them is a local
// decision, not a protocol violation.
func isOneShotReaderType(t types.Type) bool {
	if t == nil {
		return false
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if m.Name() != "Read" {
			continue
		}
		sig, ok := m.Type().(*types.Signature)
		if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 2 {
			continue
		}
		if sl, ok := sig.Params().At(0).Type().(*types.Slice); ok && isByteElem(sl.Elem()) {
			return true
		}
	}
	return false
}
