package engine

import "fmt"

// Table is a named collection of equal-length columns.
type Table struct {
	Name    string
	Columns []*Column
	byName  map[string]int
}

// NewTable creates a table from columns. All columns must have the same
// length and distinct names.
func NewTable(name string, cols ...*Column) (*Table, error) {
	t := &Table{Name: name, byName: make(map[string]int, len(cols))}
	for _, c := range cols {
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustNewTable is NewTable that panics on error; for tests and generators
// with statically correct schemas.
func MustNewTable(name string, cols ...*Column) *Table {
	t, err := NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// AddColumn appends a column to the table's schema.
func (t *Table) AddColumn(c *Column) error {
	if _, dup := t.byName[c.Name]; dup {
		return fmt.Errorf("engine: duplicate column %q in table %q", c.Name, t.Name)
	}
	if len(t.Columns) > 0 && c.Len() != t.NumRows() {
		return fmt.Errorf("engine: column %q has %d rows, table %q has %d",
			c.Name, c.Len(), t.Name, t.NumRows())
	}
	if t.byName == nil {
		t.byName = make(map[string]int)
	}
	t.byName[c.Name] = len(t.Columns)
	t.Columns = append(t.Columns, c)
	return nil
}

// NumRows returns the row count (0 for a table with no columns).
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].Len()
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.Columns) }

// Column returns the column with the given name, or an error naming the
// table for diagnostics.
func (t *Table) Column(name string) (*Column, error) {
	i, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("engine: no column %q in table %q", name, t.Name)
	}
	return t.Columns[i], nil
}

// MustColumn is Column that panics on missing columns.
func (t *Table) MustColumn(name string) *Column {
	c, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// HasColumn reports whether the table has a column with the given name.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// ColumnNames returns the schema's column names in order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	return names
}

// Gather returns a new table with the rows at idx, in order.
func (t *Table) Gather(name string, idx []int) *Table {
	cols := make([]*Column, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = c.Gather(idx)
	}
	out, err := NewTable(name, cols...)
	if err != nil {
		panic(err) // gather preserves schema invariants
	}
	return out
}

// SortedIndexByOrdinal returns row indices sorted ascending by the ordinal
// value of the named column (ties broken by row index, making the order
// deterministic; -0 ties +0 and NaN rows come last, see order.go). The
// AQP++ precomputation layer uses this to view the aggregation attribute
// "ordered by C".
func (t *Table) SortedIndexByOrdinal(col string) ([]int, error) {
	c, err := t.Column(col)
	if err != nil {
		return nil, err
	}
	return c.sortedIndex(), nil
}

// Schema describes a table's column names and types; used by persistence
// and the SQL layer.
type Schema struct {
	Names []string
	Types []ColType
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema {
	s := Schema{Names: make([]string, len(t.Columns)), Types: make([]ColType, len(t.Columns))}
	for i, c := range t.Columns {
		s.Names[i] = c.Name
		s.Types[i] = c.Type
	}
	return s
}

// SizeBytes estimates the in-memory footprint of the table's data arrays;
// used for the paper's preprocessing-space accounting (Table 1).
func (t *Table) SizeBytes() int64 {
	var total int64
	for _, c := range t.Columns {
		switch c.Type {
		case Int64:
			total += int64(len(c.Ints)) * 8
		case Float64:
			total += int64(len(c.Floats)) * 8
		default:
			total += int64(len(c.Codes)) * 4
			for _, s := range c.Dict {
				total += int64(len(s))
			}
		}
	}
	return total
}
