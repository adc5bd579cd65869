package history

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The JSONL format: one JSON object per line, e.g.
//
//	{"process":0,"type":"invoke","f":"write","key":"x","value":3}
//	{"process":0,"type":"ok","f":"write","key":"x","value":3}
//	{"process":1,"type":"invoke","f":"read","key":"x"}
//	{"process":1,"type":"ok","f":"read","key":"x","value":3}
//
// Fields: "process" (non-negative integer), "type" (invoke|ok|fail|info),
// "f" (read|write, or the aliases r|w), "key" (string or integer), and
// "value" (integer; null or absent for a read of the initial state ⊥).
// Unknown fields ("index", "time", ...) are ignored. Lines whose process
// is not an integer (Jepsen's nemesis events carry ":nemesis") are
// skipped entirely. Blank lines are skipped.
//
// ParseJSONL accepts exactly what decoding each line with encoding/json
// into those five fields accepts; the encoding/json parser it replaced is
// kept in jsonl_oracle_test.go and fuzzed against it. In detail:
//
//   - a line holds one JSON value, nested at most 10,000 deep; any byte
//     after it is an error ("trailing data after event object");
//   - a line holding null is skipped, as it has no process;
//   - keys match field names exactly or, failing that, under
//     encoding/json's case folding ("PROCESS", or "proceſſ" with the long
//     s); when a field repeats the last one wins, except that null leaves
//     "type" and "f" as they were;
//   - "type" and "f" must be strings or null, even on a skipped line;
//   - an integer may also be written as a string holding one ("3"), and
//     must fit in 64 bits with no fraction or exponent;
//   - strings decode as in encoding/json: invalid UTF-8 and unpaired
//     surrogate escapes become U+FFFD;
//   - unknown fields may hold any JSON value.

// ParseJSONL reads a JSONL history.
func ParseJSONL(r io.Reader) (*History, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	h := &History{}
	s := jsonlScanner{strs: make(map[string]string)}
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		e, ok, err := s.event(raw)
		if err != nil {
			return nil, errLine(line, "%v", err)
		}
		if ok {
			h.Events = append(h.Events, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, errLine(line+1, "read: %v", err)
	}
	return h, nil
}

// maxJSONDepth is encoding/json's nesting limit; the event object counts.
const maxJSONDepth = 10000

// jsonlField names the event fields a line may set.
type jsonlField uint8

const (
	fieldUnknown jsonlField = iota
	fieldProcess
	fieldType
	fieldF
	fieldKey
	fieldValue
	numFields
)

var fieldNames = [numFields]string{"", "process", "type", "f", "key", "value"}

// jsonValue is a field's value as its line spells it: raw is the JSON
// text, nil when the field is absent, and text a string's contents,
// unescaped.
type jsonValue struct {
	raw, text []byte
}

// jsonlScanner decodes the lines of one parse, each in a single pass over
// its bytes. The scratch buffer and the intern table last the whole
// parse, so decoding allocates per distinct string, not per event.
type jsonlScanner struct {
	line    []byte            // the current line, trimmed
	pos     int               // next unread byte of line
	depth   int               // objects and arrays open at pos
	scratch []byte            // unescaped strings of the current line
	strs    map[string]string // keys, and uncommon type and f spellings
}

// event decodes one trimmed, non-empty line. ok is false for a line that
// carries no event: null, or an object without an integer process.
func (s *jsonlScanner) event(line []byte) (e Event, ok bool, err error) {
	if string(line) == "null" {
		return e, false, nil
	}
	s.line, s.pos, s.depth, s.scratch = line, 0, 0, s.scratch[:0]
	if line[0] != '{' {
		return e, false, errors.New("invalid JSON: want an event object")
	}
	var vals [numFields]jsonValue
	if err := s.container(&vals); err != nil {
		return e, false, err
	}
	if s.pos != len(line) {
		return e, false, errors.New("trailing data after event object")
	}
	proc, ok, err := jsonInt(vals[fieldProcess])
	if err != nil || !ok {
		return e, false, nil // non-integer/absent process: nemesis/system event, skipped
	}
	e.Process = int(proc)
	if e.Kind, err = s.kind(vals[fieldType].text); err != nil {
		return e, false, err
	}
	if e.F, err = s.fn(vals[fieldF].text); err != nil {
		return e, false, err
	}
	if e.Key, err = s.key(vals[fieldKey]); err != nil {
		return e, false, fmt.Errorf("key: %v", err)
	}
	if e.Value, e.HasValue, err = jsonInt(vals[fieldValue]); err != nil {
		return e, false, fmt.Errorf("value: %v", err)
	}
	return e, true, nil
}

// container reads the object or array at pos. vals is non-nil for the
// event object, whose known fields it receives; nested values are only
// checked.
func (s *jsonlScanner) container(vals *[numFields]jsonValue) error {
	open, end := s.line[s.pos], byte(']')
	if open == '{' {
		end = '}'
	}
	if s.depth++; s.depth > maxJSONDepth {
		return errors.New("invalid JSON: exceeded max depth")
	}
	s.pos++
	s.ws()
	if s.peek() == end {
		s.pos++
		s.depth--
		return nil
	}
	for {
		fld := fieldUnknown
		if open == '{' {
			if s.peek() != '"' {
				return s.syntaxErr("looking for beginning of object key string")
			}
			mark := len(s.scratch)
			name, err := s.str()
			if err != nil {
				return err
			}
			if vals != nil {
				fld = fieldOf(name)
			}
			s.scratch = s.scratch[:mark]
			s.ws()
			if s.peek() != ':' {
				return s.syntaxErr("after object key")
			}
			s.pos++
			s.ws()
		}
		var err error
		if fld == fieldUnknown {
			err = s.value()
		} else {
			err = s.field(vals, fld)
		}
		if err != nil {
			return err
		}
		s.ws()
		switch s.peek() {
		case ',':
			s.pos++
			s.ws()
		case end:
			s.pos++
			s.depth--
			return nil
		default:
			if open == '{' {
				return s.syntaxErr("after object key:value pair")
			}
			return s.syntaxErr("after array element")
		}
	}
}

// field reads the value of a known field into vals.
func (s *jsonlScanner) field(vals *[numFields]jsonValue, fld jsonlField) error {
	start := s.pos
	var v jsonValue
	var err error
	if s.peek() == '"' {
		v.text, err = s.str()
	} else {
		err = s.value()
	}
	if err != nil {
		return err
	}
	v.raw = s.line[start:s.pos]
	if fld == fieldType || fld == fieldF {
		switch v.raw[0] {
		case '"':
		case 'n':
			return nil // null leaves a string field as it was
		default:
			return fmt.Errorf("invalid JSON: %q must be a string", fieldNames[fld])
		}
	}
	vals[fld] = v
	return nil
}

// value checks the JSON value at pos and moves past it.
func (s *jsonlScanner) value() error {
	switch c := s.peek(); {
	case c == '{' || c == '[':
		return s.container(nil)
	case c == '"':
		mark := len(s.scratch)
		_, err := s.str()
		s.scratch = s.scratch[:mark]
		return err
	case c == '-' || '0' <= c && c <= '9':
		return s.number()
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	}
	return s.syntaxErr("looking for beginning of value")
}

// str reads the string at pos and returns its contents, unescaped and
// with invalid UTF-8 replaced by U+FFFD, as encoding/json decodes them.
// The result aliases the line unless the string holds an escape or
// invalid UTF-8; then it is built in the scratch buffer.
func (s *jsonlScanner) str() ([]byte, error) {
	i := s.pos + 1
	for i < len(s.line) {
		c := s.line[i]
		if plainByte[c] {
			i++
			continue
		}
		if c == '"' {
			text := s.line[s.pos+1 : i]
			s.pos = i + 1
			return text, nil
		}
		if c < utf8.RuneSelf {
			break // an escape or a control character
		}
		r, size := utf8.DecodeRune(s.line[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	start := len(s.scratch)
	s.scratch = append(s.scratch, s.line[s.pos+1:i]...)
	for i < len(s.line) {
		switch c := s.line[i]; {
		case c == '"':
			s.pos = i + 1
			return s.scratch[start:], nil
		case c == '\\':
			r, n := s.escape(i)
			if n == 0 {
				s.pos = i + 1
				return nil, s.syntaxErr("in string escape code")
			}
			s.scratch = utf8.AppendRune(s.scratch, r)
			i += n
		case c < ' ':
			s.pos = i
			return nil, s.syntaxErr("in string literal")
		case c < utf8.RuneSelf:
			s.scratch = append(s.scratch, c)
			i++
		default:
			r, size := utf8.DecodeRune(s.line[i:])
			s.scratch = utf8.AppendRune(s.scratch, r)
			i += size
		}
	}
	s.pos = i
	return nil, s.syntaxErr("in string literal")
}

// plainByte marks the ASCII bytes a JSON string holds as themselves.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// escape decodes the escape sequence at line[i], returning the rune and
// the sequence's length, 0 if it is malformed. A surrogate pair spells
// one rune over two \u escapes; an unpaired surrogate decodes to U+FFFD.
func (s *jsonlScanner) escape(i int) (rune, int) {
	if i+1 >= len(s.line) {
		return 0, 0
	}
	switch c := s.line[i+1]; c {
	case '"', '\\', '/':
		return rune(c), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		r := hex4(s.line[i+2:])
		if r < 0 {
			return 0, 0
		}
		if !utf16.IsSurrogate(r) {
			return r, 6
		}
		if i+7 < len(s.line) && s.line[i+6] == '\\' && s.line[i+7] == 'u' {
			if pair := utf16.DecodeRune(r, hex4(s.line[i+8:])); pair != unicode.ReplacementChar {
				return pair, 12
			}
		}
		return unicode.ReplacementChar, 6
	}
	return 0, 0
}

// hex4 decodes the four hex digits of a \u escape, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number checks the JSON number at pos and moves past it.
func (s *jsonlScanner) number() error {
	i := s.pos
	if s.at(i) == '-' {
		i++
	}
	switch c := s.at(i); {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		i = s.digits(i)
	default:
		s.pos = i
		return s.syntaxErr("in numeric literal")
	}
	if s.at(i) == '.' {
		if i++; !isDigit(s.at(i)) {
			s.pos = i
			return s.syntaxErr("after decimal point in numeric literal")
		}
		i = s.digits(i)
	}
	if c := s.at(i); c == 'e' || c == 'E' {
		if i++; s.at(i) == '+' || s.at(i) == '-' {
			i++
		}
		if !isDigit(s.at(i)) {
			s.pos = i
			return s.syntaxErr("in exponent of numeric literal")
		}
		i = s.digits(i)
	}
	s.pos = i
	return nil
}

// digits returns the index of the first non-digit at or after i.
func (s *jsonlScanner) digits(i int) int {
	for isDigit(s.at(i)) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// literal checks the literal lit (true, false or null) at pos and moves
// past it.
func (s *jsonlScanner) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if s.peek() != lit[i] {
			return s.syntaxErr("in literal " + lit)
		}
		s.pos++
	}
	return nil
}

// at returns line[i], or 0 past the end of the line.
func (s *jsonlScanner) at(i int) byte {
	if i < len(s.line) {
		return s.line[i]
	}
	return 0
}

func (s *jsonlScanner) peek() byte { return s.at(s.pos) }

// ws skips JSON whitespace.
func (s *jsonlScanner) ws() {
	for s.pos < len(s.line) {
		switch s.line[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// syntaxErr reports the byte at pos, found in the given context.
func (s *jsonlScanner) syntaxErr(context string) error {
	if s.pos >= len(s.line) {
		return fmt.Errorf("invalid JSON: unexpected end of line %s", context)
	}
	return fmt.Errorf("invalid JSON: invalid character %q %s", s.line[s.pos], context)
}

// fieldOf matches an object key to an event field the way encoding/json
// matches keys to struct fields: exactly, or else under case folding.
func fieldOf(name []byte) jsonlField {
	switch string(name) {
	case "process":
		return fieldProcess
	case "type":
		return fieldType
	case "f":
		return fieldF
	case "key":
		return fieldKey
	case "value":
		return fieldValue
	}
	for f := fieldProcess; f < numFields; f++ {
		if foldEqual(name, fieldNames[f]) {
			return f
		}
	}
	return fieldUnknown
}

// foldEqual reports whether name matches the lower-case ASCII field name
// under encoding/json's folding: ASCII letters match either case, and any
// other rune matches the least rune of its case orbit, so the long s (ſ)
// matches s and the Kelvin sign (K) matches k.
func foldEqual(name []byte, field string) bool {
	i := 0
	for _, r := range string(name) {
		if i == len(field) {
			return false
		}
		if r >= utf8.RuneSelf {
			r = leastFold(r)
		} else if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		if r != rune(field[i]-('a'-'A')) {
			return false
		}
		i++
	}
	return i == len(field)
}

// leastFold returns the least rune that r case-folds to.
func leastFold(r rune) rune {
	for {
		next := unicode.SimpleFold(r)
		if next <= r {
			return next
		}
		r = next
	}
}

// jsonInt decodes an integer field as encoding/json decodes a json.Number:
// a number, or a string holding one, that is an integer in int64 range.
// ok is false for an absent or null field.
func jsonInt(v jsonValue) (n int64, ok bool, err error) {
	if v.raw == nil || string(v.raw) == "null" {
		return 0, false, nil
	}
	lit := v.raw
	if lit[0] == '"' {
		lit = v.text
	}
	if !isIntLiteral(lit) {
		return 0, false, fmt.Errorf("want an integer, got %s", v.raw)
	}
	if n, err = strconv.ParseInt(string(lit), 10, 64); err != nil {
		return 0, false, fmt.Errorf("want an integer, got %s", v.raw)
	}
	return n, true, nil
}

// isIntLiteral reports whether b is a JSON integer: -?(0|[1-9][0-9]*).
func isIntLiteral(b []byte) bool {
	if len(b) > 0 && b[0] == '-' {
		b = b[1:]
	}
	if len(b) == 0 || b[0] == '0' && len(b) > 1 {
		return false
	}
	for _, c := range b {
		if !isDigit(c) {
			return false
		}
	}
	return true
}

// key decodes the key field: a string, or an integer kept as written.
func (s *jsonlScanner) key(v jsonValue) (string, error) {
	switch {
	case v.raw == nil || string(v.raw) == "null":
		return "", errors.New("missing")
	case v.raw[0] == '"':
		return s.intern(v.text), nil
	}
	if _, _, err := jsonInt(v); err != nil {
		return "", fmt.Errorf("want a string or integer, got %s", v.raw)
	}
	return s.intern(v.raw), nil
}

// kind decodes the type field: the canonical spellings directly, and
// anything else through parseKind.
func (s *jsonlScanner) kind(text []byte) (Kind, error) {
	for k := Invoke; k <= Info; k++ {
		if string(text) == k.String() {
			return k, nil
		}
	}
	return parseKind(s.intern(text))
}

// fn decodes the f field: the canonical spellings directly, and anything
// else through parseFunc.
func (s *jsonlScanner) fn(text []byte) (Func, error) {
	for f := Read; f <= Write; f++ {
		if string(text) == f.String() {
			return f, nil
		}
	}
	return parseFunc(s.intern(text))
}

// intern returns b as a string, allocating only the first time a parse
// sees it.
func (s *jsonlScanner) intern(b []byte) string {
	if str, ok := s.strs[string(b)]; ok {
		return str
	}
	str := string(b)
	s.strs[str] = str
	return str
}

func parseKind(s string) (Kind, error) {
	switch strings.TrimPrefix(s, ":") {
	case "invoke":
		return Invoke, nil
	case "ok":
		return OK, nil
	case "fail":
		return Fail, nil
	case "info":
		return Info, nil
	case "":
		return 0, fmt.Errorf("missing event type")
	default:
		return 0, fmt.Errorf("unknown event type %q (want invoke|ok|fail|info)", s)
	}
}

func parseFunc(s string) (Func, error) {
	switch strings.TrimPrefix(s, ":") {
	case "read", "r":
		return Read, nil
	case "write", "w":
		return Write, nil
	case "":
		return 0, fmt.Errorf("missing operation function")
	default:
		return 0, fmt.Errorf("unknown operation function %q (want read|write)", s)
	}
}

// WriteJSONL renders the history in canonical JSONL: one event per line,
// fixed field order, "value":null spelled out for ⊥ reads on ok returns
// and omitted elsewhere when absent. ParseJSONL of the output reproduces
// the exact event sequence.
func (h *History) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range h.Events {
		key, err := json.Marshal(e.Key)
		if err != nil {
			return fmt.Errorf("history: key %q: %w", e.Key, err)
		}
		fmt.Fprintf(bw, `{"process":%d,"type":%q,"f":%q,"key":%s`, e.Process, e.Kind, e.F, key)
		switch {
		case e.HasValue:
			fmt.Fprintf(bw, `,"value":%d`, e.Value)
		case e.Kind == OK && e.F == Read:
			bw.WriteString(`,"value":null`)
		}
		bw.WriteString("}\n")
	}
	return bw.Flush()
}
