// Package vocab defines the canonical vocabulary of environmental
// variables used throughout the reproduction: the list "in the minds of
// the scientists" that the archive's harvested names must be wrangled
// onto. Each entry carries the canonical name, its source context, unit,
// typical value range (for the synthetic archive generator), and the
// curated synonyms/abbreviations seeded into the knowledge base.
//
// The list is modeled on the variables a coastal-margin observatory
// (CMOP) archive carries: temperatures in several contexts, salinity,
// dissolved oxygen, optics, currents, and meteorology.
package vocab

import "metamess/internal/geo"

// Variable is one canonical environmental variable.
type Variable struct {
	// Name is the canonical variable name, e.g. "water_temperature".
	Name string
	// Base is the context-free concept, e.g. "temperature".
	Base string
	// Context is the source context ("water", "air", ...), empty when the
	// concept is context-free.
	Context string
	// Unit is the canonical unit symbol from the units registry.
	Unit string
	// Typical is the physically plausible value range, used by the
	// synthetic archive generator and by range sanity checks.
	Typical geo.ValueRange
	// Synonyms are curated alternate names seeded into the synonym table.
	Synonyms []string
	// Abbrevs are curated abbreviations (the poster's "MWHLA" row).
	Abbrevs []string
}

// Standard returns the canonical vocabulary. The slice is freshly
// allocated; callers may reorder it.
func Standard() []Variable {
	return []Variable{
		{
			Name: "water_temperature", Base: "temperature", Context: "water",
			Unit: "degC", Typical: geo.ValueRange{Min: 4, Max: 22},
			Synonyms: []string{"temp_water", "wtemp", "watertemp", "sea surface temperature"},
			Abbrevs:  []string{"WT", "SST"},
		},
		{
			Name: "air_temperature", Base: "temperature", Context: "air",
			Unit: "degC", Typical: geo.ValueRange{Min: -5, Max: 35},
			Synonyms: []string{"temp_air", "atemp", "airtemp"},
			Abbrevs:  []string{"AT", "ATastn"},
		},
		{
			Name: "salinity", Base: "salinity", Context: "water",
			Unit: "PSU", Typical: geo.ValueRange{Min: 0, Max: 34},
			Synonyms: []string{"salt", "practical_salinity"},
			Abbrevs:  []string{"SAL"},
		},
		{
			Name: "dissolved_oxygen", Base: "oxygen", Context: "water",
			Unit: "mg/L", Typical: geo.ValueRange{Min: 0, Max: 14},
			Synonyms: []string{"oxygen", "do_conc", "oxygen_concentration"},
			Abbrevs:  []string{"DO", "DOX"},
		},
		{
			Name: "water_velocity", Base: "velocity", Context: "water",
			Unit: "m/s", Typical: geo.ValueRange{Min: 0, Max: 3},
			Synonyms: []string{"current_speed", "velocity"},
			Abbrevs:  []string{"VEL"},
		},
		{
			Name: "wind_speed", Base: "speed", Context: "wind",
			Unit: "m/s", Typical: geo.ValueRange{Min: 0, Max: 30},
			Synonyms: []string{"windspeed", "wind_velocity"},
			Abbrevs:  []string{"WS", "MWHLA"},
		},
		{
			Name: "turbidity", Base: "turbidity", Context: "water",
			Unit: "NTU", Typical: geo.ValueRange{Min: 0, Max: 120},
			Synonyms: []string{"turb", "nephelometric_turbidity"},
			Abbrevs:  []string{"TRB"},
		},
		{
			Name: "chlorophyll", Base: "chlorophyll", Context: "water",
			Unit: "ug/L", Typical: geo.ValueRange{Min: 0, Max: 60},
			Synonyms: []string{"chl", "chlorophyll_a", "chla"},
			Abbrevs:  []string{"CHL"},
		},
		{
			Name: "ph", Base: "ph", Context: "water",
			Unit: "pH", Typical: geo.ValueRange{Min: 6.5, Max: 8.8},
			Synonyms: []string{"acidity", "ph_level"},
			Abbrevs:  []string{"PH"},
		},
		{
			Name: "depth", Base: "depth", Context: "water",
			Unit: "m", Typical: geo.ValueRange{Min: 0, Max: 300},
			Synonyms: []string{"water_depth", "sounding"},
			Abbrevs:  []string{"DEP", "Z"},
		},
		{
			Name: "pressure", Base: "pressure", Context: "water",
			Unit: "dbar", Typical: geo.ValueRange{Min: 0, Max: 310},
			Synonyms: []string{"water_pressure", "sea_pressure"},
			Abbrevs:  []string{"PRS"},
		},
		{
			Name: "conductivity", Base: "conductivity", Context: "water",
			Unit: "1", Typical: geo.ValueRange{Min: 0, Max: 6},
			Synonyms: []string{"cond", "electrical_conductivity"},
			Abbrevs:  []string{"CND"},
		},
		{
			Name: "fluorescence", Base: "fluorescence", Context: "water",
			Unit: "1", Typical: geo.ValueRange{Min: 0, Max: 500},
			Synonyms: []string{"fluor", "fluorescence_intensity"},
			Abbrevs:  []string{"FLU"},
		},
		{
			Name: "fluores375", Base: "fluorescence", Context: "water",
			Unit: "1", Typical: geo.ValueRange{Min: 0, Max: 500},
		},
		{
			Name: "fluores400", Base: "fluorescence", Context: "water",
			Unit: "1", Typical: geo.ValueRange{Min: 0, Max: 500},
		},
		{
			Name: "fluores440", Base: "fluorescence", Context: "water",
			Unit: "1", Typical: geo.ValueRange{Min: 0, Max: 500},
		},
		{
			Name: "air_pressure", Base: "pressure", Context: "air",
			Unit: "kPa", Typical: geo.ValueRange{Min: 95, Max: 105},
			Synonyms: []string{"barometric_pressure", "baro"},
			Abbrevs:  []string{"BP"},
		},
		{
			Name: "relative_humidity", Base: "humidity", Context: "air",
			Unit: "%", Typical: geo.ValueRange{Min: 20, Max: 100},
			Synonyms: []string{"humidity", "rel_hum"},
			Abbrevs:  []string{"RH"},
		},
		{
			Name: "wind_direction", Base: "direction", Context: "wind",
			Unit: "1", Typical: geo.ValueRange{Min: 0, Max: 360},
			Synonyms: []string{"wind_dir"},
			Abbrevs:  []string{"WD"},
		},
		{
			Name: "nitrate", Base: "nitrate", Context: "water",
			Unit: "mg/L", Typical: geo.ValueRange{Min: 0, Max: 3},
			Synonyms: []string{"no3", "nitrate_concentration"},
			Abbrevs:  []string{"NIT"},
		},
	}
}

// ByName indexes vars by canonical name.
func ByName(vars []Variable) map[string]Variable {
	m := make(map[string]Variable, len(vars))
	for _, v := range vars {
		m[v.Name] = v
	}
	return m
}

// ExcessivePrefixes are the name prefixes that mark quality-assurance or
// bookkeeping variables — the poster's "excessive variables" category
// (qa_level): excluded from search, shown in detailed views.
func ExcessivePrefixes() []string {
	return []string{"qa_", "qc_", "flag_", "sigma_", "instrument_", "sensor_serial"}
}

// ExcessiveSuffixes complement ExcessivePrefixes for suffix-marked
// bookkeeping variables.
func ExcessiveSuffixes() []string {
	return []string{"_qc", "_qa", "_flag", "_raw_counts", "_stddev"}
}

// AmbiguousTerms returns the short forms whose meaning depends on the
// dataset — the poster's "temp: temporary or temperature?" row — mapped
// to their candidate expansions.
func AmbiguousTerms() map[string][]string {
	return map[string][]string{
		"temp":  {"temperature", "temporary"},
		"cond":  {"conductivity", "condition"},
		"sal":   {"salinity", "sample_alignment"},
		"do":    {"dissolved_oxygen", "data_offset"},
		"level": {"water_level", "qa_level"},
	}
}
