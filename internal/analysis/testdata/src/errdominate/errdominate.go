// Fixture for the errdominate analyzer: results of the verification
// producers may only be used on paths dominated by an err == nil check
// of the producing call's error.
package fixture

import (
	"context"
	"fmt"

	"discsec/internal/core"
)

// Used with no check anywhere in sight.
func unchecked(ctx context.Context, op *core.Opener, raw []byte) int {
	res, err := op.Open(ctx, raw)
	n := len(res.Signatures) // want errdominate
	_ = err
	return n
}

// The error is discarded outright, so no path can ever be guarded.
func discarded(ctx context.Context, op *core.Opener, raw []byte) bool {
	res, _ := op.Open(ctx, raw)
	return res.Cluster != nil // want errdominate
}

// Consulted on the failure path: exactly the wrapping-attack regression.
func onFailurePath(ctx context.Context, op *core.Opener, raw []byte) int {
	res, err := op.Open(ctx, raw)
	if err != nil {
		return len(res.Signatures) // want errdominate
	}
	return len(res.Signatures)
}

// Checking a reassigned error says nothing about the first result.
func staleCheck(ctx context.Context, op *core.Opener, raw, other []byte) int {
	res, err := op.Open(ctx, raw)
	_, err = op.Open(ctx, other)
	if err == nil {
		return len(res.Signatures) // want errdominate
	}
	return 0
}

// Short-circuit order matters: the left operand runs before the check.
func wrongOrder(ctx context.Context, op *core.Opener, raw []byte) bool {
	res, err := op.Open(ctx, raw)
	if res.Cluster != nil && err == nil { // want errdominate
		return true
	}
	return false
}

// Clean twin: the early-return guard dominates every later use.
func guarded(ctx context.Context, op *core.Opener, raw []byte) int {
	res, err := op.Open(ctx, raw)
	if err != nil {
		return 0
	}
	return len(res.Signatures)
}

// Clean twin: positive-form guard.
func guardedPositive(ctx context.Context, op *core.Opener, raw []byte) int {
	res, err := op.Open(ctx, raw)
	if err == nil {
		return len(res.Signatures)
	}
	return 0
}

// Clean twin: returning the pair is a passthrough for the caller to
// check, not a use.
func passthrough(ctx context.Context, op *core.Opener, raw []byte) (*core.OpenResult, error) {
	res, err := op.Open(ctx, raw)
	return res, err
}

// Clean twin: wrapping the error on the failure return still hands the
// caller the means to check.
func wrappedPassthrough(ctx context.Context, op *core.Opener, raw []byte) (*core.OpenResult, error) {
	res, err := op.Open(ctx, raw)
	if err != nil {
		return res, fmt.Errorf("open: %w", err)
	}
	return res, nil
}

// Clean twin: named results with a bare return carry no checked use.
func namedReturn(ctx context.Context, op *core.Opener, raw []byte) (res *core.OpenResult, err error) {
	res, err = op.Open(ctx, raw)
	return
}

// Clean twin: short-circuit in the safe order — the result is only
// touched once err == nil held.
func rightOrder(ctx context.Context, op *core.Opener, raw []byte) bool {
	res, err := op.Open(ctx, raw)
	if err == nil && res.Cluster != nil {
		return true
	}
	return false
}
