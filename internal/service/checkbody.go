package service

// The /v1/check body scanner. A body that opens with its "model" member,
// as the Go client's json.Marshal writes it, has that string found and
// checked in one pass, so a request for a model the memo already knows
// is answered without unescaping, or copying, the model text (memo.go
// keys such a request on the string's raw bytes). encoding/json decodes
// everything else, and decodes the whole body whenever the scanner
// cannot decide it, so the scanner changes what a request costs, never
// what it means: the same fields, the same errors, the same 400 for
// trailing data. FuzzDecodeCheck holds the two decoders to that.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/bits"
)

// unsetModel is a Model no decoding can produce: encoding/json replaces
// invalid UTF-8 in the strings it decodes with U+FFFD.
const unsetModel = "\xff"

// decodeCheck decodes a /v1/check body. When the scanner decides the
// body, raw is the model's JSON string as it arrived, quotes and escapes
// included (a slice of body), and req holds every other field, its Model
// empty. Otherwise raw is nil and req is json.Unmarshal's decoding of
// the whole body.
func decodeCheck(body []byte) (req CheckRequest, raw []byte, err error) {
	start, end, ok := scanModel(body)
	if ok {
		// The body with the model's value replaced by null, which leaves
		// Model as it was: every other byte, error and piece of trailing
		// data reaches encoding/json as the client sent it, and Model
		// moves off unsetModel only if a later key names the field too
		// (a duplicate, another case, an escape), which is the whole
		// body's business.
		rest := make([]byte, 0, len(body)-(end-start)+len("null"))
		rest = append(append(append(rest, body[:start]...), "null"...), body[end:]...)
		req.Model = unsetModel
		if err := json.Unmarshal(rest, &req); err != nil {
			return req, nil, err
		}
		if req.Model == unsetModel {
			req.Model = ""
			return req, body[start:end], nil
		}
		req = CheckRequest{}
	}
	return req, nil, json.Unmarshal(body, &req)
}

// unquoteModel unescapes a raw model string from decodeCheck through
// encoding/json, so the text is exactly what decoding the whole body
// would have produced (invalid UTF-8 and lone surrogates become U+FFFD).
func unquoteModel(raw []byte) (string, error) {
	var text string
	err := json.Unmarshal(raw, &text)
	return text, err
}

// scanModel returns the offsets of the model string, quotes included,
// of a body that opens with {"model": and a valid JSON string, white
// space allowed between the tokens. ok is false for any other body.
func scanModel(b []byte) (start, end int, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return 0, 0, false
	}
	i = skipSpace(b, i+1)
	if !bytes.HasPrefix(b[i:], []byte(`"model"`)) {
		return 0, 0, false
	}
	if i = skipSpace(b, i+len(`"model"`)); i == len(b) || b[i] != ':' {
		return 0, 0, false
	}
	if start = skipSpace(b, i+1); start == len(b) || b[start] != '"' {
		return 0, 0, false
	}
	if end = scanString(b, start); end < 0 {
		return 0, 0, false
	}
	return start, end, true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// Byte lanes of a 64-bit word, for scanString's eight-at-a-time skip.
const (
	laneLow  = 0x0101010101010101
	laneHigh = 0x8080808080808080
)

// scanString checks the JSON string that opens at b[i] the way
// encoding/json's scanner does (no raw control characters; only the
// escapes \" \\ \/ \b \f \n \r \t and \uXXXX; any other byte, invalid
// UTF-8 included) and returns the index just past its closing quote, or
// -1 when it is invalid or unterminated.
func scanString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		// Skip plain bytes eight at a time. m marks the lanes of w that
		// hold a quote, a backslash or a control byte; a borrow can mark a
		// lane above a marked one, never below, so the lowest mark is the
		// first such byte.
		if len(b)-i >= 8 {
			w := binary.LittleEndian.Uint64(b[i:])
			q, bs := w^(laneLow*'"'), w^(laneLow*'\\')
			m := ((q-laneLow)&^q | (bs-laneLow)&^bs | (w-laneLow*' ')&^w) & laneHigh
			if m == 0 {
				i += 7
				continue
			}
			i += bits.TrailingZeros64(m) / 8
		}
		c := b[i]
		if c >= ' ' && c != '"' && c != '\\' {
			continue
		}
		if c == '"' {
			return i + 1
		}
		if c < ' ' || i+1 == len(b) {
			return -1
		}
		i++
		switch b[i] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		case 'u':
			if len(b)-i <= 4 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
				return -1
			}
			i += 4
		default:
			return -1
		}
	}
	return -1
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
