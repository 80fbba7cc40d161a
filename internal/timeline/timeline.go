// Package timeline defines the study clock: the quarterly snapshot grid
// from October 2013 to April 2021 that every dataset in the paper is
// aggregated on (31 snapshots). All simulators and analyses address time
// through Snapshot indices so the whole system shares one calendar.
package timeline

import (
	"fmt"
	"slices"
	"time"
)

// Snapshot is a quarterly snapshot index: 0 is 2013-10, Count()-1 is
// 2021-04.
type Snapshot int

// start is the first snapshot month.
var start = time.Date(2013, time.October, 1, 0, 0, 0, 0, time.UTC)

// Count returns the number of snapshots in the study period (31).
func Count() int { return len(gridLabels) }

// All returns every snapshot in order.
func All() []Snapshot {
	out := make([]Snapshot, Count())
	for i := range out {
		out[i] = Snapshot(i)
	}
	return out
}

// Valid reports whether s is inside the study period.
func (s Snapshot) Valid() bool { return s >= 0 && int(s) < Count() }

// Time returns the first instant of the snapshot's month.
func (s Snapshot) Time() time.Time {
	return start.AddDate(0, 3*int(s), 0)
}

// MidTime returns an instant mid-month, used as "scan time" when
// validating certificate windows.
func (s Snapshot) MidTime() time.Time {
	return s.Time().AddDate(0, 0, 14)
}

// EndTime returns the first instant after the snapshot's month.
func (s Snapshot) EndTime() time.Time {
	return s.Time().AddDate(0, 1, 0)
}

// gridLabels is the label of every snapshot on the grid, in order,
// spelled out so that neither start-up nor Label formats them
// (TestGridLabelsFormatted checks each against its snapshot's Time).
// Zero-padded "YYYY-MM" labels sort as their months do.
var gridLabels = [...]string{
	"2013-10",
	"2014-01", "2014-04", "2014-07", "2014-10",
	"2015-01", "2015-04", "2015-07", "2015-10",
	"2016-01", "2016-04", "2016-07", "2016-10",
	"2017-01", "2017-04", "2017-07", "2017-10",
	"2018-01", "2018-04", "2018-07", "2018-10",
	"2019-01", "2019-04", "2019-07", "2019-10",
	"2020-01", "2020-04", "2020-07", "2020-10",
	"2021-01", "2021-04",
}

// Label renders the snapshot as the paper labels its x-axes: "2013-10".
// Only a snapshot off the grid is formatted on each call.
func (s Snapshot) Label() string {
	if s.Valid() {
		return gridLabels[s]
	}
	t := s.Time()
	return fmt.Sprintf("%04d-%02d", t.Year(), int(t.Month()))
}

// String implements fmt.Stringer.
func (s Snapshot) String() string { return s.Label() }

// FromLabel parses a label back into its snapshot. It accepts exactly
// the strings Label returns for the grid's snapshots, and returns false
// for anything else.
func FromLabel(label string) (Snapshot, bool) {
	if i, ok := slices.BinarySearch(gridLabels[:], label); ok {
		return Snapshot(i), true
	}
	return 0, false
}

// At returns the snapshot whose quarter contains t, and false if t is
// outside the study period.
func At(t time.Time) (Snapshot, bool) {
	if t.Before(start) {
		return 0, false
	}
	months := (t.Year()-start.Year())*12 + int(t.Month()) - int(start.Month())
	s := Snapshot(months / 3)
	if !s.Valid() {
		return 0, false
	}
	return s, true
}
