package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
)

// Error is a line-precise spec rejection: the file (as passed to
// Parse/Load), the 1-based line, the JSON path of the offending value
// and the message. Semantic messages cite the adversary package's
// Check* errors verbatim, so a spec error reads exactly like the panic
// the equivalent hand-wired constructor would raise.
type Error struct {
	File string
	Line int
	Path string
	Msg  string
}

// Error implements error: "file:line: path: msg".
func (e *Error) Error() string {
	var b strings.Builder
	if e.File != "" {
		fmt.Fprintf(&b, "%s:", e.File)
	}
	if e.Line > 0 {
		fmt.Fprintf(&b, "%d: ", e.Line)
	}
	if e.Path != "" {
		fmt.Fprintf(&b, "%s: ", e.Path)
	}
	b.WriteString(e.Msg)
	return b.String()
}

// lineIndex maps byte offsets to 1-based line numbers.
type lineIndex []int64

func newLineIndex(data []byte) lineIndex {
	starts := lineIndex{0}
	for i, b := range data {
		if b == '\n' {
			starts = append(starts, int64(i+1))
		}
	}
	return starts
}

func (li lineIndex) line(off int64) int {
	// First line start strictly after off, minus one.
	n := sort.Search(len(li), func(i int) bool { return li[i] > off })
	if n < 1 {
		return 1
	}
	return n
}

var (
	unmarshalerType = reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()
	injGroupType    = reflect.TypeOf(InjGroup{})
	specType        = reflect.TypeOf(Spec{})
)

// walker walks the JSON token stream against the Spec's type
// structure, rejecting unknown and duplicate object fields at their
// position. It runs in one of two modes:
//
//   - the fast walk (at == nil) records nothing, formats no paths and
//     skips leaf-only subtrees (see skippable) as single raw values;
//   - the recording walk maps every path to its line and positions its
//     own errors, for the error path of Parse.
//
// A subtree the fast walk skips decodes into a type that rejects any
// object, so the fast walk followed by json.Unmarshal accepts exactly
// what the recording walk followed by json.Unmarshal accepts.
type walker struct {
	dec   *json.Decoder
	data  []byte
	file  string
	lines lineIndex      // recording walk only
	at    map[string]int // path → line; recording walk only
	// badGroup is the first injection group, in file order, that
	// InjGroup.UnmarshalJSON rejects (recording walk only).
	badGroup *Error
}

func newWalker(data []byte) *walker {
	w := &walker{dec: json.NewDecoder(bytes.NewReader(data)), data: data}
	w.dec.UseNumber()
	return w
}

// fastCheck is the fast walk over data: well-formed JSON, no unknown
// or duplicate fields, no trailing data. It reports only whether data
// passes.
func fastCheck(data []byte) bool {
	w := newWalker(data)
	return w.value("", specType) == nil && w.trailing() == nil
}

// strictCheck is the recording walk: it validates data's structure
// like fastCheck, and returns the walker, whose path → line map
// positions later semantic errors. Types implementing json.Unmarshaler
// (and interface{} fields) accept any well-formed subtree.
func strictCheck(file string, data []byte) (*walker, error) {
	w := newWalker(data)
	w.file, w.lines, w.at = file, newLineIndex(data), map[string]int{}
	if err := w.value("", specType); err != nil {
		return nil, err
	}
	if err := w.trailing(); err != nil {
		return nil, err
	}
	return w, nil
}

// trailing rejects anything after the root value.
func (w *walker) trailing() error {
	if _, err := w.dec.Token(); err != io.EOF {
		return &Error{File: w.file, Line: w.lines.line(w.dec.InputOffset()),
			Msg: "trailing data after the spec object"}
	}
	return nil
}

func (w *walker) errf(path string, format string, args ...interface{}) error {
	return &Error{File: w.file, Line: w.lines.line(w.dec.InputOffset()),
		Path: path, Msg: fmt.Sprintf(format, args...)}
}

// field is the path of object key below path, and index that of array
// element i. The fast walk keeps no paths.
func (w *walker) field(path, key string) string {
	if w.at == nil || path == "" {
		return key
	}
	return path + "." + key
}

func (w *walker) index(path string, i int) string {
	if w.at == nil {
		return ""
	}
	return fmt.Sprintf("%s[%d]", path, i)
}

// skipValue is a json.Unmarshaler that discards its value: decoding
// into it consumes one well-formed JSON value unread.
type skipValue struct{}

func (*skipValue) UnmarshalJSON([]byte) error { return nil }

// skippable reports whether the fast walk may consume a value of typ
// as one raw value: an array type with no struct or map below it
// ([][]string routes, []InjGroup, []string). Every such type rejects
// an object at decode time, so an object the walk did not check makes
// json.Unmarshal fail and sends Parse down the recording path.
func skippable(typ reflect.Type) bool {
	for typ != nil && typ.Kind() == reflect.Ptr {
		typ = typ.Elem()
	}
	return typ != nil && (typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array) && leafOnly(typ)
}

// leafOnly reports whether typ's JSON form holds no object.
func leafOnly(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Ptr, reflect.Slice, reflect.Array:
		return leafOnly(typ.Elem())
	case reflect.Struct:
		return typ == injGroupType // an array of four integers
	case reflect.Map, reflect.Interface:
		return false
	}
	return true
}

// value consumes one JSON value at path, expected to decode into typ
// (nil = accept anything).
func (w *walker) value(path string, typ reflect.Type) error {
	if w.at == nil && skippable(typ) {
		return w.dec.Decode(&skipValue{})
	}
	start := w.dec.InputOffset()
	tok, err := w.dec.Token()
	if err != nil {
		if err == io.EOF {
			return w.errf(path, "unexpected end of file")
		}
		return w.errf(path, "%v", err)
	}
	if w.at != nil {
		w.at[path] = w.lines.line(w.dec.InputOffset())
	}
	group := typ == injGroupType
	typ = derefType(typ)
	if d, ok := tok.(json.Delim); ok {
		switch d {
		case '{':
			err = w.object(path, typ)
		case '[':
			err = w.array(path, typ)
		}
	}
	if err == nil && group && w.at != nil {
		w.checkGroup(path, start)
	}
	return err // scalar type mismatches surface via json.Unmarshal below
}

// checkGroup decodes the injection group at path, which began after
// byte offset start, and keeps the first failure with the group's own
// position: json.Unmarshal stops at that same group with that same
// error, but can only place it relative to the group's bytes.
func (w *walker) checkGroup(path string, start int64) {
	if w.badGroup != nil {
		return
	}
	raw := bytes.TrimLeft(w.data[start:w.dec.InputOffset()], " \t\r\n,")
	var gr InjGroup
	if err := gr.UnmarshalJSON(raw); err != nil {
		w.badGroup = &Error{File: w.file, Line: w.at[path], Path: path, Msg: decodeMsg(err)}
	}
}

// decodeError positions a json.Unmarshal failure of the walked data.
func (w *walker) decodeError(err error) *Error {
	if w.badGroup != nil {
		return w.badGroup
	}
	switch e := err.(type) {
	case *json.UnmarshalTypeError:
		return &Error{File: w.file, Line: w.lines.line(e.Offset), Path: e.Field, Msg: decodeMsg(e)}
	case *json.SyntaxError:
		return &Error{File: w.file, Line: w.lines.line(e.Offset), Msg: e.Error()}
	}
	return &Error{File: w.file, Line: 1, Msg: err.Error()}
}

// decodeMsg is the message of a decode failure.
func decodeMsg(err error) string {
	if e, ok := err.(*json.UnmarshalTypeError); ok {
		return fmt.Sprintf("cannot decode %s into %s", e.Value, e.Type)
	}
	return err.Error()
}

// derefType unwraps pointers and turns wildcard-ish types into nil.
func derefType(typ reflect.Type) reflect.Type {
	for typ != nil && typ.Kind() == reflect.Ptr {
		typ = typ.Elem()
	}
	if typ == nil || typ.Kind() == reflect.Interface ||
		reflect.PtrTo(typ).Implements(unmarshalerType) {
		return nil
	}
	return typ
}

func (w *walker) object(path string, typ reflect.Type) error {
	var fields map[string]reflect.Type
	var elem reflect.Type
	if typ != nil {
		switch typ.Kind() {
		case reflect.Struct:
			fields = structFields(typ)
		case reflect.Map:
			elem = typ.Elem()
		}
	}
	// Duplicate keys are rejected here because encoding/json silently
	// resolves them last-wins at Unmarshal time — the first occurrence
	// would vanish without a trace, and the at[path] line map would
	// point semantic errors at the wrong occurrence.
	var seen map[string]bool
	for w.dec.More() {
		tok, err := w.dec.Token()
		if err != nil {
			return w.errf(path, "%v", err)
		}
		key, _ := tok.(string)
		childPath := w.field(path, key)
		if seen[key] {
			return &Error{File: w.file, Line: w.lines.line(w.dec.InputOffset()),
				Path: childPath, Msg: fmt.Sprintf("duplicate field %q", key)}
		}
		if seen == nil {
			seen = map[string]bool{}
		}
		seen[key] = true
		var childType reflect.Type
		switch {
		case fields != nil:
			ft, ok := fields[key]
			if !ok {
				return &Error{File: w.file, Line: w.lines.line(w.dec.InputOffset()),
					Path: childPath, Msg: fmt.Sprintf("unknown field %q", key)}
			}
			childType = ft
		case elem != nil:
			childType = elem
		}
		if err := w.value(childPath, childType); err != nil {
			return err
		}
	}
	if _, err := w.dec.Token(); err != nil { // consume '}'
		return w.errf(path, "%v", err)
	}
	return nil
}

func (w *walker) array(path string, typ reflect.Type) error {
	var elem reflect.Type
	if typ != nil && (typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array) {
		elem = typ.Elem()
	}
	for i := 0; w.dec.More(); i++ {
		if err := w.value(w.index(path, i), elem); err != nil {
			return err
		}
	}
	if _, err := w.dec.Token(); err != nil { // consume ']'
		return w.errf(path, "%v", err)
	}
	return nil
}

var fieldCache = map[reflect.Type]map[string]reflect.Type{}

// structFields maps JSON field names to field types for a struct type.
// The cache is populated once per type at first use; Parse runs are
// single-goroutine per call but the cache itself is only mutated under
// lazy initialization of a handful of spec types, so prebuild them.
func structFields(typ reflect.Type) map[string]reflect.Type {
	if f, ok := fieldCache[typ]; ok {
		return f
	}
	f := map[string]reflect.Type{}
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		if sf.PkgPath != "" {
			continue // unexported
		}
		name := sf.Name
		if tag := sf.Tag.Get("json"); tag != "" {
			if comma := strings.IndexByte(tag, ','); comma >= 0 {
				tag = tag[:comma]
			}
			if tag == "-" {
				continue
			}
			if tag != "" {
				name = tag
			}
		}
		f[name] = sf.Type
	}
	fieldCache[typ] = f
	return f
}

// init prebuilds the field cache for every spec type so concurrent
// Parse calls (cmd/scenario run fans files across workers) never race
// on the map.
func init() {
	var seed func(t reflect.Type)
	seen := map[reflect.Type]bool{}
	seed = func(t reflect.Type) {
		t = derefType(t)
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t.Kind() {
		case reflect.Struct:
			for name, ft := range structFields(t) {
				_ = name
				seed(ft)
			}
		case reflect.Slice, reflect.Array, reflect.Map:
			seed(t.Elem())
		}
	}
	seed(reflect.TypeOf(Spec{}))
}

// lineOf resolves the best-known line for a JSON path, walking up the
// path when the exact node was not present in the file (e.g. a
// semantic error about an omitted field positions at its parent).
func lineOf(lines map[string]int, path string) int {
	for p := path; ; {
		if l, ok := lines[p]; ok {
			return l
		}
		cut := strings.LastIndexAny(p, ".[")
		if cut < 0 {
			break
		}
		p = p[:cut]
	}
	if l, ok := lines[""]; ok {
		return l
	}
	return 1
}
