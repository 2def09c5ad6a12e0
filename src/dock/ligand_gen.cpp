#include "dock/ligand_gen.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/strings.h"
#include "dock/dock.h"

namespace qdb {

Ligand generate_ligand(std::string_view pdb_id, const LigandGenOptions& opt) {
  Rng rng(pdb_id, "ligand", 0);
  std::vector<LigandAtom> atoms;
  std::vector<TorsionBond> torsions;

  // Aromatic core: a planar hexagon of carbons (benzene-like), bond 1.39 A.
  constexpr double kRing = 1.39;
  constexpr double kPi = 3.14159265358979323846;
  const double ring_r = kRing / (2.0 * std::sin(kPi / 6.0));
  for (int i = 0; i < 6; ++i) {
    const double a = 2.0 * kPi * i / 6.0;
    LigandAtom atom;
    atom.name = format("C%d", i + 1);
    atom.element = 'C';
    atom.local_pos = Vec3{ring_r * std::cos(a), ring_r * std::sin(a), 0.0};
    atom.hydrophobic = true;
    atom.charge = 0.0;
    atoms.push_back(atom);
  }

  // Substituent chains off distinct ring positions.
  const int chains = static_cast<int>(rng.range(opt.min_chains, opt.max_chains));
  int next_id = 7;
  for (int c = 0; c < chains; ++c) {
    const int anchor = static_cast<int>(rng.below(6));
    const Vec3 out_dir = atoms[static_cast<std::size_t>(anchor)].local_pos.normalized();
    // Tilt each chain out of the ring plane so chains do not overlap.
    const Vec3 tilt = Vec3{0, 0, rng.uniform(-0.8, 0.8)};
    Vec3 dir = (out_dir + tilt).normalized();

    int prev = anchor;
    const int len = static_cast<int>(rng.range(opt.min_chain_length, opt.max_chain_length));
    std::vector<int> chain_atoms;
    for (int k = 0; k < len; ++k) {
      LigandAtom atom;
      const bool hetero = rng.uniform() < opt.hetero_fraction;
      const bool is_last = (k + 1 == len);
      if (hetero || (is_last && rng.bernoulli(0.5))) {
        if (rng.bernoulli(0.5)) {
          atom.element = 'N';
          atom.donor = true;
          atom.charge = rng.bernoulli(0.3) ? 0.35 : -0.10;
        } else {
          atom.element = 'O';
          atom.acceptor = true;
          atom.charge = -0.35;
        }
      } else {
        atom.element = 'C';
        atom.hydrophobic = true;
        atom.charge = 0.02;
      }
      atom.name = format("%c%d", atom.element, next_id++);
      const Vec3 wiggle{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)};
      dir = (dir + wiggle).normalized();
      atom.local_pos = atoms[static_cast<std::size_t>(prev)].local_pos + dir * 1.5;
      atoms.push_back(atom);
      chain_atoms.push_back(static_cast<int>(atoms.size()) - 1);

      // Every chain bond beyond the anchor attachment is rotatable: the
      // bond (prev -> new atom) rotates everything later in this chain.
      prev = static_cast<int>(atoms.size()) - 1;
    }
    // Torsion per chain bond: bond k rotates chain atoms k+1.. about
    // (parent(k), chain[k]).
    for (std::size_t k = 0; k + 1 < chain_atoms.size(); ++k) {
      TorsionBond t;
      t.axis_a = (k == 0) ? anchor : chain_atoms[k - 1];
      t.axis_b = chain_atoms[k];
      t.moved.assign(chain_atoms.begin() + static_cast<std::ptrdiff_t>(k) + 1, chain_atoms.end());
      torsions.push_back(std::move(t));
    }
  }

  return Ligand(std::move(atoms), std::move(torsions), std::string(pdb_id) + "-ligand");
}

Ligand imprint_ligand(const Ligand& generic, const Structure& reference) {
  return imprint_ligand_with_site(generic, reference).ligand;
}

ImprintResult imprint_ligand_with_site(const Ligand& generic, const Structure& reference,
                                       const std::function<void()>& beside) {
  // One light, deterministic docking of the generic ligand against the
  // reference pocket fixes the imprinting pose.
  DockingParams params;
  params.num_runs = 6;
  params.mc_steps = 900;
  params.top_poses = 1;
  params.seed = fnv1a(generic.name()) ^ 0x1447e4acULL;
  const DockingResult posed = dock(reference, generic, params, beside);
  const auto coords = generic.conformation(posed.poses.front().pose);

  // Drug-like imprinting: a handful of directional H-bonds anchored on
  // *distinct* receptor partners plus a hydrophobic body.  Converting every
  // contact atom to a polar role would destroy specificity (any protein
  // surface offers backbone N/O partners everywhere); the discriminating
  // signal is the geometric pattern of a few strong contacts.
  const auto receptor_atoms = type_receptor(reference);
  std::vector<LigandAtom> atoms = generic.atoms();

  struct HbCandidate {
    double distance;
    std::size_t ligand_atom;
    std::size_t receptor_atom;
  };
  std::vector<HbCandidate> candidates;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    for (std::size_t r = 0; r < receptor_atoms.size(); ++r) {
      const ReceptorAtom& ra = receptor_atoms[r];
      if (!ra.donor && !ra.acceptor) continue;
      const double d = coords[i].distance(ra.pos);
      if (d < 4.0) candidates.push_back({d, i, r});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const HbCandidate& a, const HbCandidate& b) { return a.distance < b.distance; });

  const std::size_t max_hbonds = 3 + atoms.size() / 8;  // ~4-6 like real ligands
  std::vector<char> ligand_used(atoms.size(), 0);
  std::vector<char> receptor_used(receptor_atoms.size(), 0);
  std::vector<std::pair<std::size_t, std::size_t>> hbond_pairs;
  for (const HbCandidate& c : candidates) {
    if (hbond_pairs.size() >= max_hbonds) break;
    if (ligand_used[c.ligand_atom] || receptor_used[c.receptor_atom]) continue;
    ligand_used[c.ligand_atom] = 1;
    receptor_used[c.receptor_atom] = 1;
    hbond_pairs.emplace_back(c.ligand_atom, c.receptor_atom);
  }

  for (const auto& [li, ri] : hbond_pairs) {
    LigandAtom& a = atoms[li];
    const ReceptorAtom& ra = receptor_atoms[ri];
    if (ra.donor && (!ra.acceptor || li % 2 == 0)) {
      a.element = 'O';
      a.acceptor = true;
      a.donor = false;
      a.hydrophobic = false;
      a.charge = -0.35;
    } else {
      a.element = 'N';
      a.donor = true;
      a.acceptor = false;
      a.hydrophobic = false;
      a.charge = 0.30;
    }
  }
  // The rest of the ligand becomes the hydrophobic body.
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    if (ligand_used[i]) continue;
    atoms[i].element = 'C';
    atoms[i].hydrophobic = true;
    atoms[i].donor = atoms[i].acceptor = false;
    atoms[i].charge = 0.02;
  }

  // Geometric imprinting: mold the ligand into the reference groove.  The
  // affinity scale of the Vina function is dominated by burial (summed
  // gauss terms over close receptor-ligand pairs), so the native ligand's
  // advantage is whole-shape complementarity, not a few snapped contacts.
  // Position-based relaxation in the imprint pose: every atom descends the
  // per-atom Vina field numerically while bond-length constraints keep the
  // molecule chemically intact.  Folding the result back into the ligand
  // frame makes the molded conformation the rest shape.
  std::vector<Vec3> world = coords;

  // Connectivity from the generic rest shape: pairs closer than 1.7 A are
  // bonded (ring bonds 1.39, chain bonds 1.5).
  struct BondConstraint {
    std::size_t a, b;
    double length;
  };
  std::vector<BondConstraint> bonds;
  const auto& rest = generic.atoms();
  for (std::size_t i = 0; i < rest.size(); ++i) {
    for (std::size_t j = i + 1; j < rest.size(); ++j) {
      const double d = rest[i].local_pos.distance(rest[j].local_pos);
      if (d < 1.7) bonds.push_back({i, j, d});
    }
  }

  // Per-atom Vina field against the receptor.
  auto atom_field = [&](const Vec3& p, const LigandAtom& a) {
    double e = 0.0;
    const double lr = vdw_radius(a.element);
    for (const ReceptorAtom& ra : receptor_atoms) {
      const double d = p.distance(ra.pos);
      if (d > 8.0) continue;
      const double ds = d - lr - vdw_radius(ra.element);
      const VinaWeights w;
      e += w.gauss1 * std::exp(-(ds / 0.5) * (ds / 0.5));
      const double g2 = (ds - 3.0) / 2.0;
      e += w.gauss2 * std::exp(-g2 * g2);
      if (ds < 0.0) e += w.repulsion * ds * ds;
      if (a.hydrophobic && ra.hydrophobic && ds < 1.5)
        e += w.hydrophobic * (ds <= 0.5 ? 1.0 : (1.5 - ds));
      const bool hb = (a.donor && ra.acceptor) || (a.acceptor && ra.donor);
      if (hb && ds < 0.0) e += w.hbond * (ds <= -0.7 ? 1.0 : -ds / 0.7);
    }
    return e;
  };

  constexpr int kRelaxIters = 60;
  constexpr double kStep = 0.15;   // Angstrom per iteration
  constexpr double kFd = 0.05;     // finite-difference probe
  for (int iter = 0; iter < kRelaxIters; ++iter) {
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      const double e0 = atom_field(world[i], atoms[i]);
      Vec3 grad;
      grad.x = (atom_field(world[i] + Vec3{kFd, 0, 0}, atoms[i]) - e0) / kFd;
      grad.y = (atom_field(world[i] + Vec3{0, kFd, 0}, atoms[i]) - e0) / kFd;
      grad.z = (atom_field(world[i] + Vec3{0, 0, kFd}, atoms[i]) - e0) / kFd;
      const double g = grad.norm();
      if (g > 1e-9) world[i] -= grad * (kStep / g);
    }
    // Project bond constraints (position-based dynamics).
    for (int pass = 0; pass < 3; ++pass) {
      for (const BondConstraint& b : bonds) {
        const Vec3 delta = world[b.b] - world[b.a];
        const double d = delta.norm();
        if (d < 1e-9) continue;
        const Vec3 corr = delta * (0.5 * (d - b.length) / d);
        world[b.a] += corr;
        world[b.b] -= corr;
      }
    }
  }

  // Back to the ligand frame: local = R^-1 (world - t).
  const Pose& pose = posed.poses.front().pose;
  const Mat3 r_inv = pose.orientation.to_matrix().transposed();
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    atoms[i].local_pos = r_inv * (world[i] - pose.translation);
  }
  Ligand imprinted(std::move(atoms), generic.torsions(), generic.name() + "-imprinted");

  Vec3 site;
  for (const Vec3& p : world) site += p;
  site /= static_cast<double>(world.size());
  return ImprintResult{std::move(imprinted), site};
}

}  // namespace qdb
