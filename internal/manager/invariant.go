package manager

import (
	"errors"
	"fmt"
)

// InvariantViolation reports that one of the manager's internal consistency
// rules broke while applying an event. It signals a bug — ledger corruption,
// not a caller mistake — so the manager's state can no longer be trusted.
// The paper's whole point is *dependable* communication, so the embedding
// service must outlive its own bugs: instead of panicking, every event
// handler returns an InvariantViolation and the server degrades to
// read-only (see internal/server: ErrDegraded and the /v1/invariants
// endpoint) rather than dying and taking every admitted connection with it.
type InvariantViolation struct {
	// Op names the event being applied when the violation surfaced:
	// "establish", "terminate", "fail_link", "repair_link" or "audit".
	Op string
	// Detail describes the broken rule.
	Detail string
	// Err is the underlying cause, when one exists.
	Err error
}

func (v *InvariantViolation) Error() string {
	msg := "manager: invariant violation"
	if v.Op != "" {
		msg += " during " + v.Op
	}
	if v.Detail != "" {
		msg += ": " + v.Detail
	}
	if v.Err != nil {
		msg += ": " + v.Err.Error()
	}
	return msg
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (v *InvariantViolation) Unwrap() error { return v.Err }

// violationf builds a violation with a formatted detail string.
func violationf(format string, args ...any) *InvariantViolation {
	return &InvariantViolation{Detail: fmt.Sprintf(format, args...)}
}

// wrapViolation builds a violation around an underlying cause.
func wrapViolation(err error, format string, args ...any) *InvariantViolation {
	return &InvariantViolation{Detail: fmt.Sprintf(format, args...), Err: err}
}

// tagViolation stamps the event name onto a violation bubbling out of a
// public entry point, so reports say which operation corrupted the ledger.
// Use as `defer tagViolation(&err, "establish")` with a named return.
// The target of errors.As escapes, so it is declared only once there is an
// error: a clean event allocates nothing here.
func tagViolation(err *error, op string) {
	if *err == nil {
		return
	}
	var iv *InvariantViolation
	if errors.As(*err, &iv) && iv.Op == "" {
		iv.Op = op
	}
}

// CorruptAggregatesForTesting deliberately skews the cached bandwidth
// aggregate so the next CheckInvariants fails. It exists so fault-injection
// tests (internal/chaos, internal/server) can prove the audit and the
// server's degraded mode actually fire; never call it in production code.
func (m *Manager) CorruptAggregatesForTesting() { m.bwSum++ }
