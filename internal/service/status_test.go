package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/kit-ces/hayat"
)

// handWrittenResults are results that exercise each rule of the renderer:
// the characters compaction escapes, escapes it keeps, empty and nested
// containers, numbers in every form, insignificant whitespace, and a few
// that encoding/json refuses.
var handWrittenResults = []string{
	`{"html":"<b>fish & chips</b>","gt":">"}`,
	"{\"ls\":\"line\u2028sep\u2029para\",\"escaped\":\"\\u2028 \\u2029 \\u003c\"}",
	"{\"near\":\"\u2020 \u20ac \u2027 \u202a \xe2\x80\",\"utf8\":\"é 日本 \U0001F600\",\"raw\":\"\xff\xfe\"}",
	`{"q":"say \"hi\"","bs":"back\\slash \\\" \/ \b\f\n\r\t \u00e9 \uD83D\uDE00"}`,
	`{}`, `[]`, `{"a":{},"b":[]}`,
	`{"a":{},"b":[],"c":[{}],"d":[[],[[]],[{"e":[]}]],"f":{"g":{"h":{}}}}`,
	`[1e10,-2.5E-3,0,-0,1.0e+2,6.02214076e23,1E-7,-0.0e0,123456789012345678901234567890]`,
	" \t\r\n{ \"a\" :\t[ 1 , 2\n,3 ] ,\r\n \"b\" : null , \"c\" : [ true , false ] }\n ",
	`"top-level string"`, `42`, `true`, `false`, `null`, `[{"k":[{"k":[{"k":"v"}]}]}]`,
	// encoding/json refuses these, so both writers send an empty body.
	`{"a":}`, `[1,]`, `{"a" 1}`, "\"ctl\x01\"", `01`, `1.`, `-`, `1e`, `tru`, `[1] x`, ` `,
	`{"a":1,}`, `{1:2}`, `"\x"`, `"\u12g4"`, `[`, `"open`, `nul`, `{"a":1}}`,
}

// realResults returns the result shapes hayatd serves: a 10-year default
// (8×8) lifetime in persist's indented form, a population, and a chip
// job's compact ChipJSON blob.
func realResults(tb testing.TB) map[string][]byte {
	tb.Helper()
	sys, err := hayat.NewSystem(hayat.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	chip, err := sys.NewChip(1)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := chip.RunLifetime(hayat.PolicyHayat)
	if err != nil {
		tb.Fatal(err)
	}
	var lifetime bytes.Buffer
	if err := res.WriteJSON(&lifetime); err != nil {
		tb.Fatal(err)
	}
	chipBlob, err := res.ChipJSON()
	if err != nil {
		tb.Fatal(err)
	}
	small, err := hayat.NewSystem(tinyCfg())
	if err != nil {
		tb.Fatal(err)
	}
	pop, err := small.RunPopulation(1, 2, hayat.PolicyVAA)
	if err != nil {
		tb.Fatal(err)
	}
	var population bytes.Buffer
	if err := pop.WriteJSON(&population); err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{
		"lifetime":   lifetime.Bytes(),
		"population": population.Bytes(),
		"chip":       chipBlob,
	}
}

// statusWith is a done status with every envelope field set, carrying
// result.
func statusWith(result []byte) JobStatus {
	at := time.Date(2015, 6, 8, 9, 30, 0, 123456789, time.UTC)
	started, finished := at.Add(time.Second), at.Add(2*time.Second)
	return JobStatus{
		ID:         "job-000042",
		Key:        strings.Repeat("ab", 32),
		Kind:       KindPopulation,
		State:      JobDone,
		Cached:     true,
		CreatedAt:  at,
		StartedAt:  &started,
		FinishedAt: &finished,
		Progress:   &Progress{Done: 2, Total: 2},
		Error:      "<&> kept as the envelope escapes it",
		Result:     result,
	}
}

// answer records what write sends for st.
func answer(write func(http.ResponseWriter, int, JobStatus), st JobStatus) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	write(rec, http.StatusOK, st)
	return rec
}

// encoderAnswer is the reference: writeJSON, which re-parses the result
// through json.Encoder.
func encoderAnswer(w http.ResponseWriter, code int, st JobStatus) { writeJSON(w, code, st) }

// checkSameAnswer fails unless writeStatus sends st exactly as writeJSON.
func checkSameAnswer(t *testing.T, st JobStatus) {
	t.Helper()
	want, got := answer(encoderAnswer, st), answer(writeStatus, st)
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("writeStatus body differs from json.Encoder's for result %q:\n got %q\nwant %q",
			st.Result, got.Body.Bytes(), want.Body.Bytes())
	}
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("writeStatus answered %d %q, writeJSON %d %q", got.Code, got.Header().Get("Content-Type"),
			want.Code, want.Header().Get("Content-Type"))
	}
	if cl := got.Header().Get("Content-Length"); cl != "" && cl != strconv.Itoa(got.Body.Len()) {
		t.Fatalf("Content-Length %s for a %d-byte body", cl, got.Body.Len())
	}
}

// TestStatusBodyMatchesEncoder pins writeStatus to writeJSON byte for byte:
// on every result shape hayatd serves, on hand-written results, and over
// HTTP for a cached submit with wait and a job GET. The splice puts the
// result last, so the test also pins JobStatus.Result as the last field.
func TestStatusBodyMatchesEncoder(t *testing.T) {
	typ := reflect.TypeOf(JobStatus{})
	if last := typ.Field(typ.NumField() - 1); last.Name != "Result" {
		t.Fatalf("JobStatus's last field is %s; writeStatus splices the result in last", last.Name)
	}
	for name, result := range realResults(t) {
		t.Run(name, func(t *testing.T) {
			if !json.Valid(result) {
				t.Fatalf("%s result is not JSON", name)
			}
			if answer(encoderAnswer, statusWith(result)).Body.Len() == 0 {
				t.Fatal("reference body is empty")
			}
			checkSameAnswer(t, statusWith(result))
		})
	}
	t.Run("hand-written", func(t *testing.T) {
		for _, result := range handWrittenResults {
			checkSameAnswer(t, statusWith([]byte(result)))
		}
		// Deep, but inside encoding/json's nesting limit.
		deep := strings.Repeat(`{"a":[`, 200) + `{}` + strings.Repeat(`]}`, 200)
		checkSameAnswer(t, statusWith([]byte(deep)))
		// encoding/json refuses more than 10 000 open levels, the envelope's
		// included, so the renderer must refuse them too. Starting near the
		// limit checks that without rendering 10 000 indented lines.
		for levels, want := range map[int]bool{2: true, 3: false} {
			src := strings.Repeat("[", levels) + strings.Repeat("]", levels)
			if _, ok := renderIndented(nil, []byte(src), maxJSONNesting-2); ok != want {
				t.Errorf("%d levels from depth %d: rendered %v, want %v", levels, maxJSONNesting-2, ok, want)
			}
		}
	})
	t.Run("no-result", func(t *testing.T) {
		st := statusWith(nil)
		st.State, st.FinishedAt = JobRunning, nil
		checkSameAnswer(t, st)
	})

	t.Run("http", func(t *testing.T) {
		s := newTestServer(t, Options{})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		post := func() []byte {
			resp, err := http.Post(ts.URL+"/v1/lifetime", "application/json", strings.NewReader(
				`{"config":{"Rows":4,"Cols":4,"Years":1,"WindowSeconds":1,"MixApps":2},"seed":7,"policy":"hayat","wait":true}`))
			if err != nil {
				t.Fatal(err)
			}
			return readAnswer(t, resp)
		}
		post() // computes the result
		cached := post()
		var st JobStatus
		if err := json.Unmarshal(cached, &st); err != nil || !st.Cached || len(st.Result) == 0 {
			t.Fatalf("second submit: cached=%v, %d result bytes, err %v", st.Cached, len(st.Result), err)
		}
		ref, err := s.Status(st.ID, true)
		if err != nil {
			t.Fatal(err)
		}
		want := answer(encoderAnswer, ref).Body.Bytes()
		if !bytes.Equal(cached, want) {
			t.Fatalf("cached POST body differs from json.Encoder's:\n got %q\nwant %q", cached, want)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got := readAnswer(t, resp); !bytes.Equal(got, want) {
			t.Fatalf("GET /v1/jobs/%s body differs from json.Encoder's:\n got %q\nwant %q", st.ID, got, want)
		}
	})
}

// readAnswer reads a 200 answer's body and checks its framing.
func readAnswer(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length %d for a %d-byte body", resp.ContentLength, len(body))
	}
	return body
}

// FuzzStatusRender checks writeStatus against writeJSON on arbitrary
// results: the bodies must match byte for byte, which for a result
// json.Valid accepts means the rendering equals json.Encoder's, and for
// any other the renderer refuses it as the encoder does, without panicking.
// It is seeded with the hand-written table only: the fuzzer minimises
// every new input it finds, and on mutants of 20-KB real results that
// alone would take up a short run.
func FuzzStatusRender(f *testing.F) {
	for _, result := range handWrittenResults {
		f.Add([]byte(result))
	}
	f.Fuzz(func(t *testing.T, result []byte) {
		st := statusWith(result)
		want, got := answer(encoderAnswer, st).Body.Bytes(), answer(writeStatus, st).Body.Bytes()
		if !bytes.Equal(got, want) {
			t.Fatalf("result %q (json.Valid %v):\n got %q\nwant %q", result, json.Valid(result), got, want)
		}
	})
}
