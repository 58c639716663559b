//! All mapping techniques, one module per Table I lineage.
//!
//! Every mapper implements [`crate::Mapper`] and returns mappings that
//! pass [`crate::validate::validate`]. See the crate docs for the
//! family ↔ mapper table.

mod bnb;
mod cp_mapper;
mod edge_centric;
mod epimap;
pub(crate) mod exact_common;
mod ga;
mod graph_drawing;
mod graph_minor;
mod himap;
mod ilp_mapper;
pub(crate) mod meta_common;
mod modulo_list;
mod qea;
mod ramp;
mod sa;
mod sat_mapper;
mod smt_mapper;
mod spatial_greedy;
pub(crate) mod state;

pub use crate::sweep::IiSearch;
pub use bnb::BranchAndBound;
pub use cp_mapper::CpMapper;
pub use edge_centric::EdgeCentric;
pub use epimap::EpiMap;
pub use ga::Genetic;
pub use graph_drawing::GraphDrawing;
pub use graph_minor::GraphMinor;
pub use himap::HiMap;
pub use ilp_mapper::IlpMapper;
pub use modulo_list::ModuloList;
pub use qea::Qea;
pub use ramp::Ramp;
pub use sa::{Cooling, SimulatedAnnealing};
pub use sat_mapper::SatMapper;
pub use smt_mapper::SmtMapper;
pub use spatial_greedy::SpatialGreedy;

use crate::mapper::Mapper;
use crate::registry::MapperRegistry;

/// Every mapper at default settings — the Table I experiment
/// portfolio. Built from [`MapperRegistry::standard`].
pub fn all_mappers() -> Vec<Box<dyn Mapper>> {
    MapperRegistry::standard().build_all()
}

/// The fast heuristic subset (used where exact mappers would blow the
/// budget). Built from [`MapperRegistry::standard`].
pub fn heuristic_mappers() -> Vec<Box<dyn Mapper>> {
    MapperRegistry::standard().build_heuristics()
}
