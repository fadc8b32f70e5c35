package chat

import (
	"strings"
	"testing"
)

func TestReadIRCText(t *testing.T) {
	in := `
[0:01:23] <someuser> first blood!
[1:02:03.5] <other_user> what a play

[0:00:05] <emoji_fan> 👍 nice
`
	log, err := ReadIRCText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 3 {
		t.Fatalf("len = %d, want 3", log.Len())
	}
	// Sorted by time: 5s, 83s, 3723.5s.
	if log.At(0).User != "emoji_fan" || log.At(0).Time != 5 {
		t.Errorf("first = %+v", log.At(0))
	}
	if log.At(1).Time != 83 || log.At(1).Text != "first blood!" {
		t.Errorf("second = %+v", log.At(1))
	}
	if log.At(2).Time != 3723.5 {
		t.Errorf("third time = %g, want 3723.5", log.At(2).Time)
	}
}

func TestReadIRCTextErrors(t *testing.T) {
	cases := map[string]string{
		"no timestamp":    "<user> hi\n",
		"unterminated ts": "[0:01 <user> hi\n",
		"no user":         "[0:01:00] hi\n",
		"unterminated u":  "[0:01:00] <user hi\n",
		"empty user":      "[0:01:00] <> hi\n",
		"bad clock":       "[abc] <u> hi\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadIRCText(strings.NewReader(in)); err == nil {
				t.Errorf("accepted %q", in)
			}
		})
	}
}

func TestParseClock(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"00:00", 0},
		{"01:30", 90},
		{"1:02:03", 3723},
		{"0:00:00.25", 0.25},
		{"0:00:59.99", 59.99},
		{"2:02:05.25", 7325.25},
	}
	for _, c := range cases {
		got, err := ParseClock(c.in)
		if err != nil {
			t.Errorf("ParseClock(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseClock(%q) = %g, want %g", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "5", "1:2:3:4", "-1:00", "x:00"} {
		if _, err := ParseClock(bad); err == nil {
			t.Errorf("ParseClock(%q) accepted", bad)
		}
	}
}

func TestIRCClockRoundTrip(t *testing.T) {
	// Offsets in the h:mm:ss.ff form IRC logs print parse back to seconds.
	for _, c := range []struct {
		in   string
		want float64
	}{
		{"0:00:00.00", 0},
		{"0:00:59.99", 59.99},
		{"0:01:00.00", 60},
		{"1:00:00.00", 3600},
		{"2:02:05.25", 7325.25},
	} {
		parsed, err := ParseClock(c.in)
		if err != nil {
			t.Fatalf("round trip %g: %v", c.want, err)
		}
		if diff := parsed - c.want; diff > 0.01 || diff < -0.01 {
			t.Errorf("round trip %g -> %g", c.want, parsed)
		}
	}
}
