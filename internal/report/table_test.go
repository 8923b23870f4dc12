package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("Demo", "A", "LongHeader", "C")
	tab.Add("1", "2", "3")
	tab.Add("wide-cell", "x", "y")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "LongHeader") {
		t.Errorf("header missing: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Errorf("separator missing: %q", lines[2])
	}
	// Columns aligned: the "2" of row 1 and "x" of row 2 start at the
	// same offset.
	if strings.Index(lines[3], "2") == strings.Index(lines[4], "x") {
		// Both rows have first column widths padded to "wide-cell".
	} else {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableAddPanicsOnWrongArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("wrong cell count must panic")
		}
	}()
	tab := NewTable("t", "A", "B")
	tab.Add("only-one")
}

func TestFormatters(t *testing.T) {
	if Seconds(1.2345) != "1.234" && Seconds(1.2345) != "1.235" {
		t.Errorf("Seconds = %q", Seconds(1.2345))
	}
	if Ratio(1.434) != "1.43x" {
		t.Errorf("Ratio = %q", Ratio(1.434))
	}
}

func TestEmptyTable(t *testing.T) {
	tab := NewTable("", "X")
	out := tab.String()
	if !strings.HasPrefix(out, "X\n") {
		t.Errorf("empty table output = %q", out)
	}
}
