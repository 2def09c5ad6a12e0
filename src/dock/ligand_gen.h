// Seeded synthetic ligand generator.
//
// The paper docks each fragment against its experimentally identified
// ligand from PDBbind.  Without that proprietary pairing, we generate a
// deterministic drug-like ligand per PDB id (see DESIGN.md substitution
// table): an aromatic six-ring core plus 2-4 substituent chains with
// rotatable bonds, heteroatoms (N/O donors and acceptors) and hydrophobic
// carbons.  What the docking benchmark measures — how well each *receptor*
// conformation accommodates a flexible, chemically typed small molecule —
// is preserved because the same ligand is used against every method's
// prediction of a given entry.
#pragma once

#include <functional>
#include <string_view>

#include "dock/ligand.h"
#include "structure/molecule.h"

namespace qdb {

struct LigandGenOptions {
  int min_chains = 2;
  int max_chains = 4;
  int min_chain_length = 2;
  int max_chain_length = 4;
  double hetero_fraction = 0.35;  // chance a chain atom is N or O
};

/// Deterministic ligand for a dataset entry ("4jpy" always gives the same
/// molecule).
Ligand generate_ligand(std::string_view pdb_id, const LigandGenOptions& opt = {});

/// Complementarity imprinting — the substitute for the *native* ligand.
///
/// PDBbind ligands are co-crystallised binders: their chemistry complements
/// the reference pocket by construction, which is precisely why docking
/// scores reward predictions that reproduce the reference conformation.  To
/// recover that coupling, the generic ligand is docked once (deterministic,
/// light budget) against the reference structure, and each ligand atom's
/// chemistry is rewritten to complement its receptor neighbourhood in the
/// best pose: atoms near receptor H-bond donors become acceptors (and vice
/// versa), atoms in hydrophobic surroundings become hydrophobic carbons.
/// Geometry and torsions are unchanged.
Ligand imprint_ligand(const Ligand& generic, const Structure& reference);

/// Imprinting that also reports the binding-site centre (the centroid of
/// the imprinted pose, in the reference frame) — the Vina box centre the
/// evaluation protocol uses.  `beside` is passed to the imprinting dock(),
/// which runs it on the calling thread beside the docking runs.
struct ImprintResult {
  Ligand ligand;
  Vec3 site_center;
};
ImprintResult imprint_ligand_with_site(const Ligand& generic, const Structure& reference,
                                       const std::function<void()>& beside = {});

}  // namespace qdb
