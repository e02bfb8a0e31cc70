package experiments

import (
	"fmt"
	"io"
	"slices"

	"silofuse/internal/core"
)

// TableIIRow is one dataset-statistics row of Table II.
type TableIIRow struct {
	Name     string
	Rows     int
	Cat, Num int
	Before   int
	After    int
	Increase float64
}

// TableII reproduces the dataset statistics table (schema sizes and the
// one-hot expansion factor).
func (c Config) TableII() ([]TableIIRow, error) {
	specs, err := c.datasets()
	if err != nil {
		return nil, err
	}
	out := make([]TableIIRow, 0, len(specs))
	for _, s := range specs {
		sch := s.Schema()
		out = append(out, TableIIRow{
			Name:     s.Name,
			Rows:     s.PaperRows,
			Cat:      len(s.CatCards),
			Num:      s.NumCols,
			Before:   sch.NumColumns(),
			After:    sch.OneHotWidth(),
			Increase: float64(sch.OneHotWidth()) / float64(sch.NumColumns()),
		})
	}
	return out, nil
}

// PrintTableII renders Table II in the paper's layout.
func PrintTableII(w io.Writer, rows []TableIIRow) {
	fmt.Fprintf(w, "%-10s %8s %6s %6s %6s %6s %8s\n", "Dataset", "#Rows", "#Cat", "#Num", "#Bef", "#Aft", "Incr")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %6d %6d %6d %6d %7.2fx\n", r.Name, r.Rows, r.Cat, r.Num, r.Before, r.After, r.Increase)
	}
}

// Grid holds a (dataset, model) score matrix with per-cell trial stats.
type Grid struct {
	Title    string
	Datasets []string
	Models   []string // display names
	Cells    map[string]map[string]Stat
}

// Cell returns the stat for (dataset, model display name).
func (g *Grid) Cell(dataset, model string) Stat { return g.Cells[dataset][model] }

// PPD returns the paper's "percentage point difference" row: the best
// SiloFuse-vs-best-GAN margin per dataset.
func (g *Grid) PPD(dataset string) float64 {
	sf := g.Cells[dataset]["SiloFuse"].Mean
	bestGAN := 0.0
	for _, m := range []string{"GAN(conv)", "GAN(linear)"} {
		if s, ok := g.Cells[dataset][m]; ok && s.Mean > bestGAN {
			bestGAN = s.Mean
		}
	}
	return sf - bestGAN
}

// TableIII computes the resemblance grid (models × datasets, mean±std over
// trials) of Table III.
func (c Config) TableIII() (*Grid, error) { return project(c, (*Cells).TableIII) }

// TableIV computes the utility grid of Table IV.
func (c Config) TableIV() (*Grid, error) { return project(c, (*Cells).TableIV) }

// TableVI computes the privacy grid of Table VI for the top three models
// (TabDDPM, LatentDiff, SiloFuse) unless the config names others.
func (c Config) TableVI() (*Grid, error) { return project(c, (*Cells).TableVI) }

// TableIII projects the resemblance grid of Table III from the set.
func (s *Cells) TableIII() (*Grid, error) { return s.grid("Table III: Resemblance", "resemblance") }

// TableIV projects the utility grid of Table IV from the set.
func (s *Cells) TableIV() (*Grid, error) { return s.grid("Table IV: Utility", "utility") }

// TableVI projects the privacy grid of Table VI from the set. Its cells are
// Table III's: privacy is scored on the fits resemblance is.
func (s *Cells) TableVI() (*Grid, error) {
	return s.grid("Table VI: Privacy", "privacy", "tabddpm", "latentdiff", "silofuse")
}

// grid is metric over every configured dataset × model (defModels when the
// configuration names none), on the configured options.
func (s *Cells) grid(title, metric string, defModels ...string) (*Grid, error) {
	specs, err := s.cfg.datasets()
	if err != nil {
		return nil, err
	}
	grid := &Grid{Title: title, Cells: make(map[string]map[string]Stat)}
	for _, spec := range specs {
		grid.Datasets = append(grid.Datasets, spec.Name)
		grid.Cells[spec.Name] = make(map[string]Stat)
		for _, model := range s.cfg.models(defModels...) {
			display, err := displayName(model, s.cfg.Opts)
			if err != nil {
				return nil, err
			}
			grid.Cells[spec.Name][display] = s.stat(spec, model, variant{}, metric)
			if !slices.Contains(grid.Models, display) {
				grid.Models = append(grid.Models, display)
			}
		}
	}
	return grid, nil
}

// displayName is the name the paper's tables give model.
func displayName(model string, opts core.Options) (string, error) {
	m, err := core.New(model, opts)
	if err != nil {
		return "", err
	}
	return m.Name(), nil
}

// PrintGrid renders a grid in the paper's models-as-rows layout, including
// the PPD (SiloFuse vs best GAN) row when both are present.
func PrintGrid(w io.Writer, g *Grid) {
	fmt.Fprintln(w, g.Title)
	fmt.Fprintf(w, "%-12s", "Model")
	for _, d := range g.Datasets {
		fmt.Fprintf(w, " %14s", d)
	}
	fmt.Fprintln(w)
	for _, m := range g.Models {
		fmt.Fprintf(w, "%-12s", m)
		for _, d := range g.Datasets {
			fmt.Fprintf(w, " %14s", g.Cells[d][m])
		}
		fmt.Fprintln(w)
	}
	if slices.Contains(g.Models, "SiloFuse") && (slices.Contains(g.Models, "GAN(conv)") || slices.Contains(g.Models, "GAN(linear)")) {
		fmt.Fprintf(w, "%-12s", "PPD(vs GAN)")
		for _, d := range g.Datasets {
			fmt.Fprintf(w, " %14.1f", g.PPD(d))
		}
		fmt.Fprintln(w)
	}
}

// TableVCell is one correlation-difference analysis of Table V.
type TableVCell struct {
	Dataset  string
	Model    string
	MeanDiff float64
	HeatMap  string // ASCII rendering of the |Δassociation| matrix
}

// TableV computes the correlation-difference matrices for the paper's two
// showcase datasets (Cardio and Intrusion) and top three models.
func (c Config) TableV() ([]TableVCell, error) { return project(c, (*Cells).TableV) }

// TableV projects Table V from the set: the first trial's cells of Table
// III, scored on their association difference.
func (s *Cells) TableV() ([]TableVCell, error) {
	specs, err := s.cfg.datasets("cardio", "intrusion")
	if err != nil {
		return nil, err
	}
	var out []TableVCell
	for _, spec := range specs {
		for _, model := range s.cfg.models("silofuse", "latentdiff", "tabddpm") {
			display, err := displayName(model, s.cfg.Opts)
			if err != nil {
				return nil, err
			}
			cl := s.cell(spec, model, variant{}, 0, "association_mean_diff")
			out = append(out, TableVCell{Dataset: spec.Name, Model: display, MeanDiff: cl.scores["association_mean_diff"], HeatMap: cl.heat})
		}
	}
	return out, nil
}

// PrintTableV renders the correlation-difference summary with heat maps.
func PrintTableV(w io.Writer, cells []TableVCell) {
	fmt.Fprintln(w, "Table V: |real−synthetic| association difference (darker = worse)")
	for _, c := range cells {
		fmt.Fprintf(w, "\n%s / %s  (mean |Δ| = %.4f)\n%s", c.Dataset, c.Model, c.MeanDiff, c.HeatMap)
	}
}

// TableVIIRow is one privacy-sensitivity row of Table VII.
type TableVIIRow struct {
	Dataset string
	Steps   []int
	Scores  []Stat
}

// TableVII sweeps the number of inference denoising steps (2, 5, 25) and
// reports the privacy score of the centralized latent model (whose 25-step
// column matches Table VI's LatentDiff row in the paper).
func (c Config) TableVII() ([]TableVIIRow, error) { return project(c, (*Cells).TableVII) }

// TableVII projects Table VII from the set: one LatentDiff fit per step
// count (see Config.steps).
func (s *Cells) TableVII() ([]TableVIIRow, error) {
	specs, err := s.cfg.datasets("abalone", "heloc")
	if err != nil {
		return nil, err
	}
	steps := []int{2, 5, 25}
	var out []TableVIIRow
	for _, spec := range specs {
		row := TableVIIRow{Dataset: spec.Name, Steps: steps}
		for _, st := range steps {
			row.Scores = append(row.Scores, s.stat(spec, "latentdiff", s.cfg.steps(st), "privacy"))
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintTableVII renders the denoising-step privacy sensitivity table.
func PrintTableVII(w io.Writer, rows []TableVIIRow) {
	fmt.Fprintln(w, "Table VII: privacy score vs inference timesteps")
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-10s", "Dataset")
	for _, s := range rows[0].Steps {
		fmt.Fprintf(w, " %14d", s)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.Dataset)
		for _, s := range r.Scores {
			fmt.Fprintf(w, " %14s", s)
		}
		fmt.Fprintln(w)
	}
}
