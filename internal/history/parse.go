package history

import (
	"fmt"
	"strconv"
	"strings"
)

// Format renders h in the line-oriented interchange format accepted by
// Parse:
//
//	inv t1 E.exchange 3
//	res t1 E.exchange (true,4)
//
// Blank lines and lines starting with '#' are ignored by Parse. Format is
// for display and interchange; History.AppendKey identifies a history.
func Format(h History) string {
	var b strings.Builder
	for _, e := range h {
		switch e.Kind {
		case Invoke:
			fmt.Fprintf(&b, "inv %s %s.%s %s\n", e.Thread, e.Object, e.Method, e.Arg)
		case Respond:
			fmt.Fprintf(&b, "res %s %s.%s %s\n", e.Thread, e.Object, e.Method, e.Ret)
		}
	}
	return b.String()
}

// SyntaxError reports a malformed history line with its position. File is
// empty when the source had no name (e.g. a string literal or stdin).
type SyntaxError struct {
	File string
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	if e.File == "" {
		return fmt.Sprintf("history: line %d: %s", e.Line, e.Msg)
	}
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// Parse reads the interchange format produced by Format. Errors are
// *SyntaxError values citing the offending line; Parse never panics,
// whatever the input.
func Parse(src string) (History, error) {
	return ParseFile("", src)
}

// ParseFile is Parse with a source name for diagnostics: errors render as
// name:line: message, the convention editors and CI log scrapers follow.
func ParseFile(name, src string) (History, error) {
	return ParseFileLimited(name, src, Limits{})
}

// Limits bounds what ParseFileLimited accepts, so a service can reject
// hostile or oversized uploads with a precise diagnostic instead of
// parsing (and allocating for) them. A zero field means unlimited.
type Limits struct {
	// MaxBytes rejects the input before parsing when the source exceeds
	// this many bytes.
	MaxBytes int
	// MaxEvents rejects the input at the first event line past this
	// count (each inv/res line is one event).
	MaxEvents int
}

// ParseFileLimited is ParseFile under input limits. Violations are
// *SyntaxError values like any other parse failure: an oversized source
// is reported at line 1, an event-count overflow at the offending line,
// both naming the limit so the submitter knows what to shrink.
func ParseFileLimited(name, src string, lim Limits) (History, error) {
	if lim.MaxBytes > 0 && len(src) > lim.MaxBytes {
		return nil, &SyntaxError{File: name, Line: 1,
			Msg: fmt.Sprintf("input is %d bytes, limit is %d", len(src), lim.MaxBytes)}
	}
	var h History
	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if lim.MaxEvents > 0 && len(h) >= lim.MaxEvents {
			return nil, &SyntaxError{File: name, Line: ln + 1,
				Msg: fmt.Sprintf("history exceeds %d events", lim.MaxEvents)}
		}
		e, err := parseLine(line)
		if err != nil {
			return nil, &SyntaxError{File: name, Line: ln + 1, Msg: err.Error()}
		}
		h = append(h, e)
	}
	return h, nil
}

func parseLine(line string) (Event, error) {
	fields := strings.Fields(line)
	if len(fields) != 4 {
		return Event{}, fmt.Errorf("want 4 fields %q, got %d", "kind thread obj.method value", len(fields))
	}
	var kind EventKind
	switch fields[0] {
	case "inv":
		kind = Invoke
	case "res":
		kind = Respond
	default:
		return Event{}, fmt.Errorf("unknown action kind %q", fields[0])
	}
	t, err := parseThread(fields[1])
	if err != nil {
		return Event{}, err
	}
	dot := strings.LastIndexByte(fields[2], '.')
	if dot <= 0 || dot == len(fields[2])-1 {
		return Event{}, fmt.Errorf("malformed target %q, want obj.method", fields[2])
	}
	o, f := ObjectID(fields[2][:dot]), Method(fields[2][dot+1:])
	v, err := ParseValue(fields[3])
	if err != nil {
		return Event{}, err
	}
	if kind == Invoke {
		return Inv(t, o, f, v), nil
	}
	return Res(t, o, f, v), nil
}

func parseThread(s string) (ThreadID, error) {
	// Insist on t followed by decimal digits only: no signs, no spaces, so
	// every accepted id round-trips through ThreadID.String.
	if len(s) < 2 || s[0] != 't' {
		return 0, fmt.Errorf("malformed thread id %q, want tN", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, fmt.Errorf("malformed thread id %q, want tN", s)
		}
	}
	n, err := strconv.ParseInt(s[1:], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed thread id %q: %w", s, err)
	}
	return ThreadID(n), nil
}
