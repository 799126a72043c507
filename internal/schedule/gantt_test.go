package schedule

import (
	"strings"
	"testing"

	"repro/internal/pace"
)

// TestGanttFig2Example reproduces the shape of Fig. 2: six tasks on five
// processors with the ordering 3 5 2 1 6 4 and explicit node maps.
func TestGanttFig2Example(t *testing.T) {
	// Fig. 2 maps (nodes P1..P5 encoded as bits 0..4, leftmost digit of
	// the figure's string = P1): task3=11010, task5=01010, task2=11110,
	// task1=01000, task6=10111, task4=01001.
	parse := func(s string) uint64 {
		var m uint64
		for i, c := range s {
			if c == '1' {
				m |= 1 << uint(i)
			}
		}
		return m
	}
	// Task positions 0..5 represent tasks #1..#6.
	maps := []uint64{
		parse("01000"), // task #1
		parse("11110"), // task #2
		parse("11010"), // task #3
		parse("01001"), // task #4
		parse("01010"), // task #5
		parse("10111"), // task #6
	}
	order := []int{2, 4, 1, 0, 5, 3} // task ordering 3 5 2 1 6 4, base-0
	sol := Solution{Order: order, Maps: maps}
	if err := sol.Validate(6, 5); err != nil {
		t.Fatal(err)
	}
	tasks := makeTasks(6, 1e9)
	s := build(sol, tasks, NewResource(5), 0, constPredictor(10))
	out := Gantt(s, 60)

	// Five processor rows, highest processor first.
	for _, want := range []string{"P5 ", "P4 ", "P3 ", "P2 ", "P1 ", "makespan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Gantt output missing %q:\n%s", want, out)
		}
	}
	// Task #3 runs first on P1 (bit 0), so row P1 begins with glyph '3'.
	lines := strings.Split(out, "\n")
	var p1 string
	for _, l := range lines {
		if strings.HasPrefix(l, "P1 ") {
			p1 = l
		}
	}
	if !strings.Contains(p1, "|3") {
		t.Fatalf("P1 row does not start with task 3:\n%s", out)
	}
}

func TestGanttEmptySchedule(t *testing.T) {
	s := build(Solution{Order: []int{}, Maps: []uint64{}}, nil, NewResource(2), 0, constPredictor(1))
	out := Gantt(s, 20)
	if !strings.Contains(out, "P1") || !strings.Contains(out, "P2") {
		t.Fatalf("empty Gantt missing processor rows:\n%s", out)
	}
}

func TestGanttMinimumWidth(t *testing.T) {
	tasks := makeTasks(1, 1e9)
	s := build(Solution{Order: []int{0}, Maps: []uint64{1}}, tasks, NewResource(1), 0, constPredictor(5))
	out := Gantt(s, 1) // clamped up to 10
	if !strings.Contains(out, strings.Repeat("1", 10)) {
		t.Fatalf("minimum-width Gantt wrong:\n%s", out)
	}
}

func TestTaskGlyph(t *testing.T) {
	if taskGlyph(0) != '1' || taskGlyph(8) != '9' {
		t.Fatal("digit glyphs wrong")
	}
	if taskGlyph(9) != 'a' || taskGlyph(34) != 'z' {
		t.Fatal("letter glyphs wrong")
	}
	if taskGlyph(35) != '#' || taskGlyph(1000) != '#' {
		t.Fatal("overflow glyph wrong")
	}
}

func TestGanttShortTaskStillVisible(t *testing.T) {
	// A task much shorter than one cell must still occupy one column.
	tasks := makeTasks(2, 1e9)
	short := &pace.AppModel{Name: "short"}
	tasks[0].App, tasks[1].App = short, &pace.AppModel{Name: "long"}
	sol := Solution{Order: []int{0, 1}, Maps: []uint64{0b01, 0b10}}
	s := build(sol, tasks, NewResource(2), 0, func(app *pace.AppModel, _ int) float64 {
		if app == short {
			return 0.01
		}
		return 100
	})
	out := Gantt(s, 50)
	if !strings.Contains(out, "|1") {
		t.Fatalf("sub-cell task invisible:\n%s", out)
	}
}
