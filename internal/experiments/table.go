package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Column is one column of a Table. Name has no spaces: the text header and
// the .dat header both use it, and plots.gp addresses the figures' .dat
// columns by position. Format is the fmt verb a cell prints with in text.
type Column struct {
	Name, Format string
}

// Table is one experiment's result as printed: a title, named columns and
// rows holding one cell per column.
type Table struct {
	Title   string
	Columns []Column
	Rows    [][]any
}

// Render writes the title, a blank line and the rows as an aligned
// Markdown pipe table, each cell printed with its column's format.
func (t *Table) Render(w io.Writer) error {
	header := make([]string, len(t.Columns))
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		header[i], width[i] = c.Name, len(c.Name)
	}
	text := [][]string{header}
	for _, row := range t.Rows {
		line := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			line[i] = fmt.Sprintf(c.Format, row[i])
			width[i] = max(width[i], utf8.RuneCountInString(line[i]))
		}
		text = append(text, line)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", t.Title)
	for n, line := range text {
		for i, s := range line {
			fmt.Fprintf(&b, "| %-*s ", width[i], s)
		}
		b.WriteString("|\n")
		if n == 0 {
			for _, wd := range width {
				fmt.Fprintf(&b, "|%s", strings.Repeat("-", wd+2))
			}
			b.WriteString("|\n")
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Dat returns the table for gnuplot: a "# "-prefixed line of column
// names, then each row's cells at full precision, separated by spaces.
func (t *Table) Dat() []byte {
	var b bytes.Buffer
	b.WriteString("#")
	for _, c := range t.Columns {
		b.WriteString(" " + c.Name)
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		fmt.Fprintln(&b, row...)
	}
	return b.Bytes()
}

// GnuplotScript returns a plots.gp that renders the paper's four
// figures from the tables' Dat files, written as <name>.dat.
func GnuplotScript() string {
	return `# Regenerates the paper's figures from the .dat files in this directory.
# Usage: gnuplot plots.gp     (produces fig2.png ... fig4.png)
set terminal pngcairo size 900,600
set grid

set output "fig2.png"
set title "Figure 2: average bandwidth vs number of DR-connections"
set xlabel "DR-connections offered"; set ylabel "bandwidth (Kbps)"
set yrange [0:550]
plot "fig2.dat" using 1:3:4 with yerrorlines title "simulation", \
     "fig2.dat" using 1:5 with linespoints title "Markov model", \
     "fig2.dat" using 1:7 with lines dashtype 2 title "ideal"

set output "fig3.png"
set title "Figure 3: average bandwidth vs number of nodes"
set xlabel "nodes"; set ylabel "bandwidth (Kbps)"
set y2label "links"; set y2tics
plot "fig3.dat" using 1:4 with linespoints title "simulation", \
     "fig3.dat" using 1:5 with linespoints title "Markov model", \
     "fig3.dat" using 1:2 axes x1y2 with lines dashtype 2 title "links"

set y2tics; unset y2label; unset y2tics
set output "fig4.png"
set title "Figure 4: average bandwidth vs link failure rate"
set xlabel "failure rate"; set ylabel "bandwidth (Kbps)"
set logscale x
set yrange [0:550]
plot "fig4.dat" using 1:2 with linespoints title "sim (load A)", \
     "fig4.dat" using 1:3 with linespoints title "Markov (load A)", \
     "fig4.dat" using 1:5 with linespoints title "sim (load B)", \
     "fig4.dat" using 1:6 with linespoints title "Markov (load B)"
unset logscale x

set output "table1.png"
set title "Table 1: 5-state vs 9-state chains"
set xlabel "channels"; set ylabel "bandwidth (Kbps)"
set yrange [0:550]
plot "table1.dat" using 1:2 with linespoints title "random, 5 states", \
     "table1.dat" using 1:3 with linespoints title "random, 9 states", \
     "table1.dat" using 1:5 with linespoints title "tier, 5 states", \
     "table1.dat" using 1:6 with linespoints title "tier, 9 states"
`
}
