package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

type corpusFile struct {
	name string
	data []byte
}

// loadCorpus reads every checked-in scenario.
func loadCorpus(tb testing.TB) []corpusFile {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no scenario corpus: %v", err)
	}
	out := make([]corpusFile, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = corpusFile{filepath.Base(p), data}
	}
	return out
}

// checkAgree parses data through Parse, its fast path and the recording
// pipeline, and fails unless all three agree: the fast path accepts
// exactly what the recording pipeline accepts, accepted specs are
// equal, and a rejection is the same *Error from Parse as from the
// recording pipeline.
func checkAgree(t *testing.T, file string, data []byte) (*Spec, error) {
	t.Helper()
	s, err := Parse(file, data)
	rs, rerr := parseRecording(file, data)
	fast := parseFast(file, data)
	if (fast != nil) != (rerr == nil) {
		t.Fatalf("fast path accepts = %v, recording pipeline error = %v", fast != nil, rerr)
	}
	if rerr != nil {
		var se, rse *Error
		if !errors.As(err, &se) || !errors.As(rerr, &rse) {
			t.Fatalf("rejections are %T and %T, want *Error: %v / %v", err, rerr, err, rerr)
		}
		if *se != *rse {
			t.Fatalf("Parse error %+v, recording pipeline error %+v", *se, *rse)
		}
		return nil, err
	}
	if err != nil {
		t.Fatalf("Parse rejects what the recording pipeline accepts: %v", err)
	}
	if !reflect.DeepEqual(s, rs) || !reflect.DeepEqual(s, fast) {
		t.Fatalf("pipelines decode different specs:\nParse:     %+v\nrecording: %+v\nfast:      %+v", s, rs, fast)
	}
	return s, nil
}

// mutations derives invalid variants of a valid spec: an unknown field
// in the first object at each nesting depth, duplicate keys inside a
// route, an injection group and policy.edges, an object where an
// injection group or a route belongs, truncations and trailing data.
// A mutation whose anchor the spec lacks is left out.
func mutations(data []byte) map[string][]byte {
	out := map[string][]byte{}
	insert := func(name string, at int, text string) {
		m := make([]byte, 0, len(data)+len(text))
		m = append(append(append(m, data[:at]...), text...), data[at:]...)
		out[name] = m
	}
	// after inserts text after the n-th '[' or '{' (n >= 1) that follows
	// the first occurrence of key.
	after := func(name, key string, n int, text string) {
		i := bytes.Index(data, []byte(key))
		for ; i >= 0 && n > 0; n-- {
			j := bytes.IndexAny(data[i+1:], "[{")
			if j < 0 {
				return
			}
			i += 1 + j
		}
		if i >= 0 {
			insert(name, i+1, text)
		}
	}

	// The first '{' at each depth of '{'/'[' nesting, outside strings.
	depth, inStr, esc := 0, false, false
	seen := map[int]bool{}
	for i, c := range data {
		switch {
		case esc:
			esc = false
		case inStr:
			esc = c == '\\'
			inStr = c != '"'
		case c == '"':
			inStr = true
		case c == '{' || c == '[':
			if c == '{' && !seen[depth] {
				seen[depth] = true
				text := `"zz_unknown": 0`
				if j := skipSpace(data, i+1); j < len(data) && data[j] != '}' {
					text += ", "
				}
				insert("unknown field at depth "+strconv.Itoa(depth), i+1, text)
			}
			depth++
		case c == '}' || c == ']':
			depth--
		}
	}

	after("duplicate key in a route", `"route":`, 1, `{"k": 1, "k": 2}, `)
	after("duplicate key in a replay route", `"routes":`, 2, `{"k": 1, "k": 2}, `)
	after("duplicate key in an injection group", `"injections":`, 2, `{"k": 1, "k": 2}, `)
	after("duplicate key in policy.edges", `"policy":`, 1, `"edges": {"e1": "FIFO", "e1": "LIS"}, `)
	after("object for an injection group", `"injections":`, 1, `{"t": 1}, `)
	after("object for a replay route", `"routes":`, 1, `{"r": 1}, `)
	out["truncated"] = data[:len(data)/2]
	out["trailing data"] = append(append([]byte{}, data...), "{}"...)
	return out
}

// TestParsePipelinesAgreeOnCorpus holds the fast path to the recording
// pipeline on every corpus spec and a table of invalid mutations of
// each: same accept or reject, same spec, same *Error.
func TestParsePipelinesAgreeOnCorpus(t *testing.T) {
	for _, f := range loadCorpus(t) {
		t.Run(f.name, func(t *testing.T) {
			if _, err := checkAgree(t, f.name, f.data); err != nil {
				t.Fatalf("corpus spec rejected: %v", err)
			}
			muts := mutations(f.data)
			names := make([]string, 0, len(muts))
			for name := range muts {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				data := muts[name]
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					if _, err := checkAgree(t, f.name, data); err == nil {
						t.Error("mutated spec accepted")
					}
				})
			}
		})
	}
}

// injGroupInputs are injection-group encodings around the directly
// scanned form: whitespace, signs, fractions, exponents, non-numbers,
// int64 bounds, lengths and nesting.
var injGroupInputs = []string{
	`[1,2,3,4]`,
	` [ 1 , 2 , 3 , 4 ] `,
	"[\n1,\n\t2,\r\n3,4\n]\n",
	`[-0,0,-0,0]`,
	`[7,-1,-5,-2]`,
	`[1e3,0,1,0]`,
	`[1E3,0,1,0]`,
	`[1.0,0,1,0]`,
	`[1,0,1.5,0]`,
	`null`,
	`["1",0,1,0]`,
	`[true,0,1,0]`,
	`[null,0,1,0]`,
	`[9223372036854775807,0,1,0]`,
	`[9223372036854775808,0,1,0]`,
	`[-9223372036854775808,0,1,0]`,
	`[-9223372036854775809,0,1,0]`,
	`[18446744073709551616,0,1,0]`,
	`[99999999999999999999,0,1,0]`,
	`[0000000000000000001,0,1,0]`,
	`[01,0,1,0]`,
	`[-,0,1,0]`,
	`[]`,
	`[1,2,3]`,
	`[1,2,3,4,5]`,
	`[[1],2,3,4]`,
	`[1,2,3,[4]]`,
	`[1,2,3,4,]`,
	`[1 2 3 4]`,
	`[1,2,3,4`,
	`[1,2,3,4]x`,
	`[1,2,3,4] [1]`,
	`{}`,
	`{"t": 1}`,
	``,
}

// checkInjGroup compares InjGroup.UnmarshalJSON with json.Unmarshal
// into []int64 plus the four-element rule it replaces.
func checkInjGroup(t *testing.T, b []byte) {
	t.Helper()
	var a []int64
	refErr := json.Unmarshal(b, &a)
	refOK := refErr == nil && len(a) == 4
	var gr InjGroup
	err := gr.UnmarshalJSON(b)
	if (err == nil) != refOK {
		t.Fatalf("%q: UnmarshalJSON error %v, json.Unmarshal into []int64 gives %v (error %v)", b, err, a, refErr)
	}
	if refOK {
		want := InjGroup{T: a[0], Route: int(a[1]), N: a[2], Tag: int(a[3])}
		if gr != want {
			t.Fatalf("%q: decoded %+v, want %+v", b, gr, want)
		}
	}
}

func TestInjGroupDecoderMatchesUnmarshal(t *testing.T) {
	for _, in := range injGroupInputs {
		checkInjGroup(t, []byte(in))
	}
}

func FuzzInjGroup(f *testing.F) {
	for _, in := range injGroupInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkInjGroup(t, b) })
}

// TestParseAllocs gates the success path of Parse on the largest corpus
// spec: e1 must cost fewer allocations than one per ten injection
// groups.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "e1.json"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse("e1.json", data)
	if err != nil {
		t.Fatal(err)
	}
	limit := float64(len(s.Adversary.Replay.Injections)) / 10
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Parse("e1.json", data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= limit {
		t.Errorf("Parse(e1.json) allocates %.0f objects, want < %.0f", allocs, limit)
	}
}

// BenchmarkParseCorpus parses every corpus spec once per op; MB/s is
// over the corpus bytes.
func BenchmarkParseCorpus(b *testing.B) {
	files := loadCorpus(b)
	var n int64
	for _, f := range files {
		n += int64(len(f.data))
	}
	b.SetBytes(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, f := range files {
			if _, err := Parse(f.name, f.data); err != nil {
				b.Fatal(err)
			}
		}
	}
}
