package spec

import (
	"fmt"

	"calgo/internal/trace"
)

// Step rejections are formatted only when read. The checker's subset
// enumeration probes Step with speculative elements and discards almost
// every rejection unread, so formatting eagerly (fmt.Errorf, and with it
// the element's String) would dominate the search's profile for nothing.

// rejection is a Step error that renders the offending CA-element lazily.
type rejection struct {
	msg string
	el  trace.Element
}

func (r *rejection) Error() string { return r.msg + ": " + r.el.String() }

// reject builds a lazily-formatted Step rejection for el.
func reject(msg string, el trace.Element) error { return &rejection{msg: msg, el: el} }

// rejectionf is a Step error kept as its format and arguments.
type rejectionf struct {
	format string
	args   []any
}

func (r *rejectionf) Error() string { return fmt.Sprintf(r.format, r.args...) }

// rejectf builds a Step rejection as fmt.Errorf would (without %w), but
// formats it only if its Error method is called.
func rejectf(format string, args ...any) error { return &rejectionf{format: format, args: args} }
