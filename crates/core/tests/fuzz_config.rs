//! Adversarial fuzz of the configuration-file parser: `parse_ini`
//! and the full `FlowConfig::from_ini` resolution must return `Err`
//! on malformed input — never panic — whatever bytes a user's editor,
//! a truncated download, or a hostile file hands them.

use std::sync::Arc;

use ecad_core::config::{parse_ini, FlowConfig};
use ecad_core::engine::Engine;
use ecad_core::genome::CandidateGenome;
use ecad_core::measurement::Measurement;
use ecad_core::workers::Evaluator;
use rt::check::{select, vec};
use rt::rand::rngs::StdRng;
use rt::rand::{Rng, SeedableRng};

/// Stands in for a real evaluator: building an engine never evaluates.
struct Unused;

impl Evaluator for Unused {
    fn evaluate(&self, _: &CandidateGenome) -> Measurement {
        unreachable!("the fuzz only builds engines")
    }

    fn target_name(&self) -> String {
        "unused".to_string()
    }
}

rt::prop! {
    #![cases(256)]
    /// Raw byte soup through both entry points.
    fn ini_parser_survives_byte_soup(bytes in vec(0u8..=255, 0..96)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_ini(&text);
        let _ = FlowConfig::from_ini(&text);
    }

    /// INI-shaped line soup: section headers, half-headers, comments,
    /// unknown keys, a known key outside its section, duplicate
    /// sections, and values the typed getters must refuse gracefully
    /// (bad numbers, unknown devices, mismatched objective/weight
    /// lists, unknown objectives, non-finite weights, out-of-range
    /// settings). Every configuration it accepts must build an engine
    /// with its own objectives, sample its space into trainable genomes,
    /// and breed from them. The settings carry their section header:
    /// a key outside its section is an error, so bare settings would
    /// leave almost no accepted file that sets anything.
    fn ini_parser_survives_line_soup(lines in vec(select(std::vec::Vec::from([
        "[nna]", "[hardware]", "[optimization]", "[", "]", "[]", "[nna",
        "layers = 3", "layers = banana", "layers =", "= 3", "layers", "crossover_rate = 1",
        "[hardware]\ntarget = fpga", "[hardware]\ntarget = abacus",
        "[hardware]\ndevice = arria10_gx1150", "[hardware]\nddr_banks = 0",
        "[optimization]\nobjectives = accuracy, throughput", "[optimization]\nweights = 0.5",
        "[optimization]\nweights = not,numbers", "[optimization]\nobjectives = accurcy",
        "[optimization]\nweights = nan", "; comment", "# comment", "", " ",
        "[nna]\nmax_neurons = 99999999999999999999", "[optimization]\nseed = -1",
        "\u{0}=\u{0}", "[optimization]\ncrossover_rate = 1.5",
        "[optimization]\ncrossover_rate = nan", "[optimization]\ncrossover_rate = 1",
        "[optimization]\npopulation = 0", "[optimization]\nevaluations = 0",
        "[optimization]\ntournament = 0", "[optimization]\nthreads = 0",
        "[nna]\nmin_layers = 3", "[nna]\nmax_layers = 1", "[nna]\nmax_layers = 0",
        "[nna]\nmin_neurons = 50", "[nna]\nmax_neurons = 4", "[nna]\nmin_neurons = 0",
    ])), 0..16)) {
        let text = lines.join("\n");
        let _ = parse_ini(&text);
        if let Ok(config) = FlowConfig::from_ini(&text) {
            rt::prop_assert!(config.objectives.objectives().iter().all(|o| o.weight.is_finite()));
            let (space, evolution) = (config.space, config.evolution);
            let engine = Engine::new(Arc::new(Unused), space.clone(), config.objectives, evolution);
            drop(engine);
            let mut rng = StdRng::seed_from_u64(evolution.seed);
            let (a, b) = (space.sample(&mut rng), space.sample(&mut rng));
            let child = if rng.gen_bool(evolution.crossover_rate) {
                space.crossover(&a, &b, &mut rng)
            } else {
                a.clone()
            };
            let child = space.mutate(&child, &mut rng);
            for genome in [&a, &b, &child] {
                rt::prop_assert!(space.contains(genome));
                rt::prop_assert!(genome.nna.layers.iter().all(|l| l.neurons > 0));
            }
        }
    }

    /// Whatever `parse_ini` accepts must be internally consistent:
    /// the documented shape is section → key → value with keys
    /// holding their text verbatim, so re-serializing a parsed file
    /// and parsing again is a fixpoint of the section/key structure.
    fn ini_accepted_input_reparses(lines in vec(select(std::vec::Vec::from([
        "[nna]", "[hardware]", "[a b]", "k = v", "k=v", "k = v v",
        "key2 = 1.5", "; note", "", "   ", "k = [x]",
    ])), 0..12)) {
        let text = lines.join("\n");
        if let Ok(sections) = parse_ini(&text) {
            let rendered: String = {
                let mut names: Vec<_> = sections.keys().collect();
                names.sort();
                names
                    .iter()
                    .map(|name| {
                        let mut body: Vec<_> = sections[*name]
                            .iter()
                            .map(|(k, v)| format!("{k} = {v}"))
                            .collect();
                        body.sort();
                        if name.is_empty() {
                            body.join("\n")
                        } else {
                            format!("[{name}]\n{}", body.join("\n"))
                        }
                    })
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            let reparsed = parse_ini(&rendered).expect("rendered config parses");
            rt::prop_assert_eq!(reparsed, sections);
        }
    }
}
