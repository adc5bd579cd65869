package history

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// parseJSONLOracle is the encoding/json parser that ParseJSONL's scanner
// replaced, kept as the independent slow path the scanner is checked
// against (FuzzJSONLMatchesOracle, TestJSONLQuirks). It decodes each line
// by reflection and re-decodes the process, key and value fields. Its one
// change from the original is the trailing-data check, which compares the
// decoder's offset with the line length: json.Decoder.More reports no
// more data before a closing bracket, so `{...}}` used to parse.

type jsonlEvent struct {
	Process json.RawMessage `json:"process"`
	Type    string          `json:"type"`
	F       string          `json:"f"`
	Key     json.RawMessage `json:"key"`
	Value   json.RawMessage `json:"value"`
}

func parseJSONLOracle(r io.Reader) (*History, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	h := &History{}
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var je jsonlEvent
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		if err := dec.Decode(&je); err != nil {
			return nil, errLine(line, "invalid JSON: %v", err)
		}
		if dec.InputOffset() != int64(len(raw)) {
			return nil, errLine(line, "trailing data after event object")
		}
		proc, ok, err := parseJSONInt(je.Process)
		if err != nil || !ok {
			continue // non-integer/absent process: nemesis/system event, skipped
		}
		e := Event{Process: int(proc)}
		if e.Kind, err = parseKind(je.Type); err != nil {
			return nil, errLine(line, "%v", err)
		}
		if e.F, err = parseFunc(je.F); err != nil {
			return nil, errLine(line, "%v", err)
		}
		if e.Key, err = parseJSONKey(je.Key); err != nil {
			return nil, errLine(line, "key: %v", err)
		}
		v, has, err := parseJSONInt(je.Value)
		if err != nil {
			return nil, errLine(line, "value: %v", err)
		}
		if has {
			e.Value, e.HasValue = v, true
		}
		h.Events = append(h.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, errLine(line+1, "read: %v", err)
	}
	return h, nil
}

// parseJSONInt decodes an integer field; (0,false,nil) for absent/null.
func parseJSONInt(raw json.RawMessage) (int64, bool, error) {
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 || string(raw) == "null" {
		return 0, false, nil
	}
	var num json.Number
	if err := json.Unmarshal(raw, &num); err != nil {
		return 0, false, fmt.Errorf("want an integer, got %s", raw)
	}
	n, err := num.Int64()
	if err != nil {
		return 0, false, fmt.Errorf("want an integer, got %s", num)
	}
	return n, true, nil
}

// parseJSONKey decodes a key: a string, or an integer rendered decimally.
func parseJSONKey(raw json.RawMessage) (string, error) {
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 || string(raw) == "null" {
		return "", fmt.Errorf("missing")
	}
	if raw[0] == '"' {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return "", fmt.Errorf("bad string %s", raw)
		}
		return s, nil
	}
	var num json.Number
	if err := json.Unmarshal(raw, &num); err != nil {
		return "", fmt.Errorf("want a string or integer, got %s", raw)
	}
	if _, err := num.Int64(); err != nil {
		return "", fmt.Errorf("want a string or integer, got %s", num)
	}
	return num.String(), nil
}
