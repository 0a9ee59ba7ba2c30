package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"incore/internal/kernels"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata from this build")

// responseGoldenPath pins the exact response bytes of /v1/analyze and
// /v1/batch, one sha256 per response, so any change to how a response
// is rendered must reproduce the wire bytes it replaces.
const responseGoldenPath = "testdata/golden_responses.json"

// goldenRequest is one pinned request: its endpoint and raw body.
type goldenRequest struct {
	path string
	body []byte
}

// hostileNames are raw JSON string literals (spliced into request bodies
// verbatim, so invalid UTF-8 reaches the server's decoder as bytes): HTML
// and JSON metacharacters, control bytes, invalid UTF-8, and the JSONP
// line separators, escaped and raw.
var hostileNames = []string{
	`"<>&\"\\"`,
	`"ctl\u0000\u0001\b\f\n\r\t\u001f\u007f end"`,
	"\"bad\xff\xfe utf8 \xc3\"",
	`"sep \u2028\u2029 end"`,
	"\"raw sep \u2028\u2029 end\"",
	`"wide ünïcödé 名前 ` + "\U0001F600" + `"`,
}

// extraBlocks cover what the suite does not. The first five carry
// mnemonics outside the model tables, so their responses include the
// coverage footer and unknown_mnemonics; the fourth and fifth have long
// non-ASCII instruction texts, which the report pads by rune count, and
// the fifth is truncated in the middle of a rune, so its report holds
// invalid UTF-8. The last has no loop-carried dependency, so its
// response omits lcd_path.
var extraBlocks = []struct{ arch, asm string }{
	{"goldencove", "\tvmovupd (%rsi), %ymm1\n\tvpmaddubsw %ymm1, %ymm2, %ymm3\n\taddq $4, %rax\n"},
	{"zen4", "\tvpmaddubsw %ymm1, %ymm2, %ymm3\n\tvpdpbusd %ymm4, %ymm5, %ymm6\n\taddq $4, %rax\n\tcmpq %rbx, %rax\n\tjb .L0\n"},
	{"neoversev2", "\tsha256h q0, q1, v2.4s\n\tfadd d0, d0, d1\n"},
	{"goldencove", "\tvfmadd231p\u00e9 0x12345678(%rax,%rbx,8), %ymm1, %ymm2\n"},
	{"goldencove", "\txx" + strings.Repeat("\u00e9", 17) + " 0x12(%rax), %rbx\n\taddq $1, %rax\n"},
	{"goldencove", "\tmovq 0x1000(%rax,%rbx,8), %rcx\n"},
}

// requestBody renders an analyze request with name given as a raw JSON
// string literal ("" omits the field).
func requestBody(t *testing.T, arch, asm, rawName string) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(`{"arch":`)
	writeJSONString(t, &b, arch)
	b.WriteString(`,"asm":`)
	writeJSONString(t, &b, asm)
	if rawName != "" {
		b.WriteString(`,"name":`)
		b.WriteString(rawName)
	}
	b.WriteByte('}')
	return b.Bytes()
}

func writeJSONString(t *testing.T, b *bytes.Buffer, s string) {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(data)
}

// goldenRequests enumerates the pinned requests: every suite block under
// its own name and under the default name, one /v1/batch per
// architecture and name (with a failing item, so the error item shape is
// pinned too), the extra blocks, and hostile names.
func goldenRequests(t *testing.T) map[string]goldenRequest {
	t.Helper()
	suite, err := kernels.FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	reqs := map[string]goldenRequest{}
	add := func(key, path string, body []byte) {
		if _, dup := reqs[key]; dup {
			t.Fatalf("duplicate golden key %q", key)
		}
		reqs[key] = goldenRequest{path, body}
	}
	batches := map[string][]json.RawMessage{}
	for _, tb := range suite {
		arch, name, asm := tb.Config.Arch, tb.Block.Name, tb.Block.Text()
		own, err := json.Marshal(name)
		if err != nil {
			t.Fatal(err)
		}
		for label, rawName := range map[string]string{"own": string(own), "default": ""} {
			body := requestBody(t, arch, asm, rawName)
			add("analyze/"+arch+"/"+name+"/"+label, "/v1/analyze", body)
			batches[arch+"/"+label] = append(batches[arch+"/"+label], body)
		}
	}
	// The failing item fails parsing rather than naming an unknown arch,
	// whose message would list the registry's keys.
	bad := json.RawMessage(`{"arch":"goldencove","asm":"not assembly ((((","name":"broken"}`)
	for key, items := range batches {
		items = append(items, bad)
		body, err := json.Marshal(map[string][]json.RawMessage{"requests": items})
		if err != nil {
			t.Fatal(err)
		}
		add("batch/"+key, "/v1/batch", body)
	}
	var extra []json.RawMessage
	for i, d := range extraBlocks {
		body := requestBody(t, d.arch, d.asm, `"extra-`+strconv.Itoa(i)+`"`)
		add("analyze/extra/"+strconv.Itoa(i), "/v1/analyze", body)
		extra = append(extra, body)
	}
	hostileAsm := suite[0].Block.Text()
	for i, raw := range hostileNames {
		body := requestBody(t, suite[0].Config.Arch, hostileAsm, raw)
		add("analyze/hostile/"+strconv.Itoa(i), "/v1/analyze", body)
		extra = append(extra, body)
	}
	body, err := json.Marshal(map[string][]json.RawMessage{"requests": extra})
	if err != nil {
		t.Fatal(err)
	}
	add("batch/extra-hostile", "/v1/batch", body)
	return reqs
}

// TestResponseBytesGolden replays every pinned request through the
// handler and compares the sha256 of each response body.
func TestResponseBytesGolden(t *testing.T) {
	api, err := NewWithOptions(Options{JobWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Close)
	h := api.Handler()
	reqs := goldenRequests(t)
	keys := make([]string, 0, len(reqs))
	for k := range reqs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got := make(map[string]string, len(reqs))
	for _, k := range keys {
		gr := reqs[k]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, gr.path, bytes.NewReader(gr.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", k, rec.Code, rec.Body.Bytes())
		}
		sum := sha256.Sum256(rec.Body.Bytes())
		got[k] = hex.EncodeToString(sum[:])
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(responseGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d response hashes to %s", len(got), responseGoldenPath)
		return
	}

	data, err := os.ReadFile(responseGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d responses, test generated %d", len(want), len(got))
	}
	for _, k := range keys {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: not in the golden file", k)
		} else if w != got[k] {
			t.Errorf("%s: response bytes differ from golden (sha256 %s, want %s)", k, got[k], w)
		}
	}
}
