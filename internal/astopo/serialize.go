package astopo

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"offnetscope/internal/timeline"
)

// Serialization in the spirit of the CAIDA AS-to-organization dataset
// the paper consumes ("as|from|org"): one file carries every AS's
// rename history, where the public dataset has one file per release.

// WriteOrgs serializes an OrgDB: "as|from-snapshot|org name".
func WriteOrgs(w io.Writer, db *OrgDB) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# offnetscope as-org: as|from|org")
	var asns []ASN
	for as := range db.entries {
		asns = append(asns, as)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, as := range asns {
		for _, e := range db.entries[as] {
			fmt.Fprintf(bw, "%d|%d|%s\n", as, e.from, e.name)
		}
	}
	return bw.Flush()
}

// ReadOrgs parses WriteOrgs output back into an OrgDB.
func ReadOrgs(r io.Reader) (*OrgDB, error) {
	db := NewOrgDB()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.SplitN(text, "|", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("astopo: line %d: bad org record %q", line, text)
		}
		as, err1 := strconv.Atoi(parts[0])
		from, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("astopo: line %d: bad org record %q", line, text)
		}
		db.Set(ASN(as), timeline.Snapshot(from), parts[2])
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("astopo: %w", err)
	}
	return db, nil
}
