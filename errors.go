package fabp

import (
	"errors"
	"fmt"
)

// The facade's error taxonomy. Every error the public API returns is
// reachable through errors.Is / errors.As against one of four heads:
//
//	ErrBadQuery          the query text or ScanRequest.Query is unusable,
//	                     or a Stream byte is not a nucleotide letter
//	ErrBadOption         an option, ScanRequest field, or combination is invalid
//	*PartialError        a scan completed degraded (errors.As; hits are valid)
//	*db.CorruptError     a database file is structurally damaged
//	                     (errors.Is(err, ErrCorruptDatabase))
//
// Context errors (context.Canceled, context.DeadlineExceeded) pass
// through untagged, as do the caller's own errors: an Emit callback's
// error and a Stream reader's read error. The sentinels wrap, they do
// not replace: tagged errors keep their original messages, so string
// output is unchanged. See DESIGN.md §13 for the full contract.
var (
	// ErrBadQuery matches errors caused by unusable query input: an
	// unparsable or empty protein string, a nil ScanRequest.Query, or a
	// byte of a ScanRequest.Stream that is not a nucleotide letter (its
	// message names the letter's stream position).
	ErrBadQuery = errors.New("fabp: bad query")
	// ErrBadOption matches errors caused by invalid configuration: a
	// NewAligner option out of range, an invalid ScanRequest field, or a
	// conflicting combination.
	ErrBadOption = errors.New("fabp: bad option")
)

// taggedError attaches a sentinel to an error without touching its
// message: Error() is the inner error's text verbatim, and Unwrap
// exposes both the sentinel (for errors.Is) and the inner error (so
// wrapped chains like *db.CorruptError stay reachable).
type taggedError struct {
	tag error
	err error
}

func (e *taggedError) Error() string   { return e.err.Error() }
func (e *taggedError) Unwrap() []error { return []error{e.tag, e.err} }

// badQuery tags err as ErrBadQuery (nil passes through).
func badQuery(err error) error {
	if err == nil {
		return nil
	}
	return &taggedError{tag: ErrBadQuery, err: err}
}

// badOption tags err as ErrBadOption (nil passes through).
func badOption(err error) error {
	if err == nil {
		return nil
	}
	return &taggedError{tag: ErrBadOption, err: err}
}

// badOptionf formats a new ErrBadOption-tagged error.
func badOptionf(format string, args ...any) error {
	return badOption(fmt.Errorf(format, args...))
}

// badQueryf formats a new ErrBadQuery-tagged error.
func badQueryf(format string, args ...any) error {
	return badQuery(fmt.Errorf(format, args...))
}
