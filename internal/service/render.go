package service

// maxJSONNesting is encoding/json's nesting limit: its scanner rejects a
// value nested deeper, so the renderer does too.
const maxJSONNesting = 10000

// renderIndented appends the JSON value src to dst exactly as json.Encoder
// with SetIndent("", "  ") writes a json.RawMessage whose line starts at
// indent level depth: insignificant whitespace dropped, '<', '>', '&',
// U+2028 and U+2029 inside strings escaped as compaction escapes them,
// empty objects and arrays kept as {} and [], ": " after keys and a
// newline plus two spaces per level before each element and closer.
// Strings and numbers are copied as whole runs, so a result costs one
// pass instead of encoding/json's compact and indent scans. It reports
// false when src is not one JSON value encoding/json would accept at
// that depth; dst's contents past its length are then unspecified.
func renderIndented(dst, src []byte, depth int) ([]byte, bool) {
	r := renderer{src: src, dst: dst, depth: depth}
	if !r.value() {
		return dst, false
	}
	r.skipSpace()
	if r.i != len(r.src) {
		return dst, false
	}
	return r.dst, true
}

type renderer struct {
	src   []byte
	i     int // next unread byte of src
	dst   []byte
	depth int // indent level of the current line
}

func (r *renderer) skipSpace() {
	src, i := r.src, r.i
	for i < len(src) && (src[i] == ' ' || src[i] == '\n' || src[i] == '\t' || src[i] == '\r') {
		i++
	}
	r.i = i
}

// peek returns the next byte past whitespace, or 0 at the end of src.
func (r *renderer) peek() byte {
	r.skipSpace()
	if r.i == len(r.src) {
		return 0
	}
	return r.src[r.i]
}

// spaces indents 16 levels at once; deeper lines append it in pieces.
const spaces = "                                "

func (r *renderer) newline() {
	r.dst = append(r.dst, '\n')
	for n := 2 * r.depth; n > 0; n -= len(spaces) {
		r.dst = append(r.dst, spaces[:min(n, len(spaces))]...)
	}
}

func (r *renderer) value() bool {
	switch r.peek() {
	case '{':
		return r.container('}')
	case '[':
		return r.container(']')
	case '"':
		return r.str()
	case 't':
		return r.literal("true")
	case 'f':
		return r.literal("false")
	case 'n':
		return r.literal("null")
	default:
		return r.number()
	}
}

// container renders an object (closer '}') or an array (closer ']')
// starting at the opening bracket.
func (r *renderer) container(closer byte) bool {
	if r.depth++; r.depth > maxJSONNesting {
		return false
	}
	r.dst = append(r.dst, r.src[r.i])
	r.i++
	if r.peek() == closer {
		r.i++
		r.depth--
		r.dst = append(r.dst, closer)
		return true
	}
	for {
		r.newline()
		if closer == '}' {
			if r.peek() != '"' || !r.str() || r.peek() != ':' {
				return false
			}
			r.i++
			r.dst = append(r.dst, ':', ' ')
		}
		if !r.value() {
			return false
		}
		switch r.peek() {
		case ',':
			r.i++
			r.dst = append(r.dst, ',')
		case closer:
			r.i++
			r.depth--
			r.newline()
			r.dst = append(r.dst, closer)
			return true
		default:
			return false
		}
	}
}

// inString marks the bytes a string's run of ordinary bytes stops at:
// its end, an escape, a control character (invalid), a character
// compaction escapes, and 0xE2, the first byte of U+2028 and U+2029.
var inString = func() (t [256]bool) {
	for c := 0; c < 0x20; c++ {
		t[c] = true
	}
	for _, c := range []byte{'"', '\\', '<', '>', '&', 0xE2} {
		t[c] = true
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// str renders a string starting at its opening quote.
func (r *renderer) str() bool {
	src := r.src
	start, i := r.i, r.i+1
	for i < len(src) {
		if !inString[src[i]] {
			i++
			continue
		}
		switch c := src[i]; {
		case c == '"':
			i++
			r.dst = append(r.dst, src[start:i]...)
			r.i = i
			return true
		case c == '\\':
			n := escapeLen(src[i:])
			if n == 0 {
				return false
			}
			i += n
		case c < 0x20:
			return false
		case c == 0xE2:
			if i+2 >= len(src) || src[i+1] != 0x80 || src[i+2]&^1 != 0xA8 {
				i++
				continue
			}
			r.dst = append(r.dst, src[start:i]...)
			r.dst = append(r.dst, '\\', 'u', '2', '0', '2', hexDigits[src[i+2]&0xF])
			i += 3
			start = i
		default: // '<', '>', '&'
			r.dst = append(r.dst, src[start:i]...)
			r.dst = append(r.dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			i++
			start = i
		}
	}
	return false
}

// escapeLen is the length of the valid escape sequence b starts with, or
// 0 when it starts with none.
func escapeLen(b []byte) int {
	if len(b) < 2 {
		return 0
	}
	switch b[1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		if len(b) < 6 {
			return 0
		}
		for _, c := range b[2:6] {
			if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
				return 0
			}
		}
		return 6
	}
	return 0
}

func (r *renderer) literal(lit string) bool {
	end := r.i + len(lit)
	if end > len(r.src) || string(r.src[r.i:end]) != lit {
		return false
	}
	r.dst = append(r.dst, lit...)
	r.i = end
	return true
}

// number renders a number in JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (r *renderer) number() bool {
	src := r.src
	i := r.i
	if i < len(src) && src[i] == '-' {
		i++
	}
	switch {
	case i < len(src) && src[i] == '0':
		i++
	case i < len(src) && '1' <= src[i] && src[i] <= '9':
		i = skipDigits(src, i+1)
	default:
		return false
	}
	if i < len(src) && src[i] == '.' {
		i++
		j := skipDigits(src, i)
		if j == i {
			return false
		}
		i = j
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		i++
		if i < len(src) && (src[i] == '+' || src[i] == '-') {
			i++
		}
		j := skipDigits(src, i)
		if j == i {
			return false
		}
		i = j
	}
	r.dst = append(r.dst, src[r.i:i]...)
	r.i = i
	return true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
