package service

import (
	"encoding/json"
	"testing"
)

// decodeCases are bodies decodeCheck must take past the scanner, or
// must leave to json.Unmarshal whole, each also a FuzzDecodeCheck seed.
var decodeCases = []struct {
	name    string
	body    string
	scanned bool
}{
	{"marshaled", `{"model":"aag 1 0 1 0 0\n2 3\n","format":"aag","bound":3,"engine":"sat"}`, true},
	{"spaced", " \t\r\n{ \"model\" :\n\"model m\\nvar x : 1 = 0;\\n\" , \"bound\" : 4 }\n", true},
	{"escapes and a lone surrogate", `{"model":"\ud800 é€\/\b\f\r\t\"\\\u00e9"}`, true},
	{"invalid UTF-8", "{\"model\":\"a\xff\xfe\xc3b\",\"engine\":\"\xe2\x82\"}", true},
	{"a later null model", `{"model":"m","MODEL":null}`, true},
	{"trailing object", `{"model":"m","bound":3} {"bound":4}`, false},
	{"trailing garbage", `{"model":"m"}x`, false},
	{"syntax error after the model", `{"model":"m","bound":3x}`, false},
	{"model not first", `{"bound":4,"model":"m"}`, false},
	{"escaped key", `{"mod\u0065l":"m","bound":1}`, false},
	{"capitalized key", `{"Model":"m"}`, false},
	{"upper-case duplicate", `{"model":"m","MODEL":"n"}`, false},
	{"escaped duplicate", `{"model":"m","mod\u0065l":""}`, false},
	{"duplicate model", `{"model":"a","bound":2,"model":"b"}`, false},
	{"duplicate non-string model", `{"model":"a","model":7}`, false},
	{"null model", `{"model":null,"bound":1}`, false},
	{"number model", `{"model":7}`, false},
	{"array model", `{"model":["x"]}`, false},
	{"control character", "{\"model\":\"a\tb\"}", false},
	{"bad \\u escape", `{"model":"\u12G4"}`, false},
	{"short \\u escape", `{"model":"\u12"}`, false},
	{"bad escape", `{"model":"\x"}`, false},
	{"control character after the model", "{\"model\":\"m\",\"engine\":\"s\nat\"}", false},
	{"unterminated model", `{"model":"abc`, false},
	{"unclosed object", `{"model":"m"`, false},
	{"missing colon", `{"model" "m"}`, false},
	{"empty object", `{}`, false},
	{"not an object", `["model","m"]`, false},
	{"empty body", ``, false},
	{"an earlier release's wait flag", `{"model":"m","bound":1,"wait":true}`, true},
}

// TestDecodeCheckScans pins which bodies skip decoding their model; the
// Go client's json.Marshal output must.
func TestDecodeCheckScans(t *testing.T) {
	for _, c := range decodeCases {
		if _, raw, _ := decodeCheck([]byte(c.body)); (raw != nil) != c.scanned {
			t.Errorf("%s: scanned %v, want %v", c.name, raw != nil, c.scanned)
		}
	}
	body, err := json.Marshal(CheckRequest{Model: "model m\n\tvar x : 1 = 0; <&>\n", Bound: 2, Deepen: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, raw, _ := decodeCheck(body); raw == nil {
		t.Errorf("json.Marshal's body %s is not scanned", body)
	}
}

// FuzzDecodeCheck holds decodeCheck to encoding/json: on any body both
// accept, or both reject with the same error, and when they accept they
// decode the same CheckRequest, the model compared after unescaping.
func FuzzDecodeCheck(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want CheckRequest
		wantErr := json.Unmarshal(body, &want)
		got, raw, err := decodeCheck(body)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("decodeCheck: %v; json.Unmarshal: %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if raw != nil {
			if got.Model != "" {
				t.Fatalf("scanned body decoded a model %q", got.Model)
			}
			if got.Model, err = unquoteModel(raw); err != nil {
				t.Fatalf("unquote %q: %v", raw, err)
			}
		}
		if got != want {
			t.Fatalf("decodeCheck: %+v\njson.Unmarshal: %+v", got, want)
		}
	})
}
