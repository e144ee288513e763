package ctlproto

import "reflect"

// FastPaths reports whether WriteMsg encodes payload without
// json.Marshal (encode), and whether ReadMsg and DecodePayload read the
// payload it writes back to an equal value without encoding/json
// (decode).
func FastPaths(msgType string, payload any) (encode, decode bool) {
	b, ok := appendPayload(nil, payload)
	if !ok {
		return false, false
	}
	want := reflect.ValueOf(payload)
	if want.Kind() == reflect.Pointer {
		want = want.Elem()
	}
	got := reflect.New(want.Type())
	return true, canonicalPayload(msgType, b) && scanPayload(got.Interface(), b) &&
		reflect.DeepEqual(got.Elem().Interface(), want.Interface())
}
