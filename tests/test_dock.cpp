// Tests for src/dock: ligand pose math, the generator, the Vina scoring
// terms, the receptor grid, pose-RMSD metrics, and full docking runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "data/reference.h"
#include "dock/dock.h"
#include "dock/ligand_gen.h"
#include "dock/vina_score.h"
#include "dock/vina_simd.h"
#include "lattice/lattice.h"
#include "lattice/solver.h"
#include "obs/metrics.h"
#include "structure/protonate.h"
#include "structure/reconstruct.h"

namespace qdb {
namespace {

constexpr double kPi = 3.14159265358979323846;

Ligand two_atom_probe(char e1 = 'C', char e2 = 'C') {
  std::vector<LigandAtom> atoms(2);
  atoms[0].name = "A1"; atoms[0].element = e1; atoms[0].local_pos = {0, 0, 0};
  atoms[1].name = "A2"; atoms[1].element = e2; atoms[1].local_pos = {1.5, 0, 0};
  return Ligand(std::move(atoms), {}, "probe");
}

Structure test_receptor(const std::string& seq = "LLDTGADDTV") {
  const auto aa = parse_sequence(seq);
  FoldingHamiltonian h(aa, HamiltonianWeights::standard(static_cast<int>(aa.size())));
  const SolveResult ground = ExactSolver().solve(h);
  std::vector<Vec3> trace;
  for (const IVec3& p : walk_positions(ground.turns)) trace.push_back(lattice_to_cartesian(p));
  Structure s = reconstruct_backbone(trace, aa, "test");
  add_polar_hydrogens(s);
  assign_partial_charges(s);
  s.center_on_origin();
  return s;
}

TEST(Ligand, NeutralPoseKeepsLocalGeometry) {
  const Ligand probe = two_atom_probe();
  const auto coords = probe.conformation(probe.neutral_pose());
  ASSERT_EQ(coords.size(), 2u);
  EXPECT_NEAR(coords[0].distance(coords[1]), 1.5, 1e-12);
}

TEST(Ligand, RigidTransformMovesAllAtoms) {
  const Ligand probe = two_atom_probe();
  Pose p = probe.neutral_pose();
  p.translation = {10, 0, 0};
  p.orientation = Quat::from_axis_angle({0, 0, 1}, kPi / 2);
  const auto coords = probe.conformation(p);
  // Distances are preserved by rigid motion.
  EXPECT_NEAR(coords[0].distance(coords[1]), 1.5, 1e-12);
  // The centroid moved to the translation.
  const Vec3 centroid = (coords[0] + coords[1]) * 0.5;
  EXPECT_NEAR(centroid.distance({10, 0, 0}), 0.0, 1e-9);
}

TEST(Ligand, TorsionRotatesOnlyMovedAtoms) {
  std::vector<LigandAtom> atoms(4);
  // Copy-assign from a named string, not a literal: `name = "C"` inlined in
  // this loop trips GCC 12's -Wrestrict false positive (PR105651) at -O2.
  const std::string carbon = "C";
  for (int i = 0; i < 4; ++i) {
    atoms[static_cast<std::size_t>(i)].name = carbon;
    atoms[static_cast<std::size_t>(i)].element = 'C';
    atoms[static_cast<std::size_t>(i)].local_pos = {1.5 * i, 0, 0};
  }
  // Kink the tail so rotation about the x-axis bond actually moves it.
  atoms[3].local_pos = {3.0, 1.5, 0};
  TorsionBond t;
  t.axis_a = 1;
  t.axis_b = 2;
  t.moved = {3};
  const Ligand lig({atoms.begin(), atoms.end()}, {t}, "tors");

  Pose p = lig.neutral_pose();
  const auto before = lig.conformation(p);
  p.torsions[0] = kPi;
  const auto after = lig.conformation(p);
  EXPECT_NEAR(before[0].distance(after[0]), 0.0, 1e-9);
  EXPECT_NEAR(before[1].distance(after[1]), 0.0, 1e-9);
  EXPECT_NEAR(before[2].distance(after[2]), 0.0, 1e-9);
  EXPECT_GT(before[3].distance(after[3]), 1.0);
  // Bond lengths across the torsion are preserved.
  EXPECT_NEAR(after[2].distance(after[3]), before[2].distance(before[3]), 1e-9);
}

TEST(Ligand, ValidatesTopology) {
  std::vector<LigandAtom> atoms(2);
  atoms[0].local_pos = {0, 0, 0};
  atoms[1].local_pos = {1, 0, 0};
  TorsionBond bad;
  bad.axis_a = 0;
  bad.axis_b = 0;
  bad.moved = {1};
  EXPECT_THROW(Ligand({atoms.begin(), atoms.end()}, {bad}, "x"), PreconditionError);
  EXPECT_THROW(Ligand({}, {}, "x"), PreconditionError);
}

TEST(LigandGen, DeterministicPerId) {
  const Ligand a = generate_ligand("4jpy");
  const Ligand b = generate_ligand("4jpy");
  ASSERT_EQ(a.num_atoms(), b.num_atoms());
  for (int i = 0; i < a.num_atoms(); ++i) {
    EXPECT_NEAR(a.atoms()[static_cast<std::size_t>(i)].local_pos.distance(
                    b.atoms()[static_cast<std::size_t>(i)].local_pos), 0.0, 1e-12);
  }
  const Ligand c = generate_ligand("3d7z");
  EXPECT_TRUE(c.num_atoms() != a.num_atoms() ||
              c.atoms()[6].local_pos.distance(a.atoms()[6].local_pos) > 1e-9);
}

TEST(LigandGen, DrugLikeComposition) {
  for (const char* id : {"4jpy", "2qbs", "3ckz", "5nkb", "1ppi"}) {
    const Ligand lig = generate_ligand(id);
    EXPECT_GE(lig.num_atoms(), 8) << id;
    EXPECT_LE(lig.num_atoms(), 30) << id;
    EXPECT_GE(lig.num_torsions(), 1) << id;
    int donors = 0, acceptors = 0, hydrophobes = 0;
    for (const LigandAtom& a : lig.atoms()) {
      donors += a.donor;
      acceptors += a.acceptor;
      hydrophobes += a.hydrophobic;
    }
    EXPECT_GE(hydrophobes, 6) << id;       // the aromatic core at least
    EXPECT_GE(donors + acceptors, 1) << id;
  }
}

TEST(LigandGen, BondLengthsAreChemical) {
  const Ligand lig = generate_ligand("2bok");
  // Ring bonds 1.39, chain bonds 1.5.
  for (int i = 0; i < 6; ++i) {
    const Vec3& a = lig.atoms()[static_cast<std::size_t>(i)].local_pos;
    const Vec3& b = lig.atoms()[static_cast<std::size_t>((i + 1) % 6)].local_pos;
    EXPECT_NEAR(a.distance(b), 1.39, 1e-6);
  }
}

TEST(VinaScore, RadiiAndWeights) {
  EXPECT_DOUBLE_EQ(vdw_radius('C'), 1.9);
  EXPECT_DOUBLE_EQ(vdw_radius('O'), 1.7);
  const VinaWeights w;
  EXPECT_LT(w.gauss1, 0.0);
  EXPECT_GT(w.repulsion, 0.0);
  EXPECT_LT(w.hbond, 0.0);
}

TEST(VinaScore, ContactIsFavourableOverlapIsNot) {
  const Structure rec = test_receptor();
  const NeighbourIndex grid(type_receptor(rec), 8.0);
  const Ligand probe = two_atom_probe();

  // Place the probe at increasing distances from the receptor surface along
  // +x from the centre; find the minimum-energy distance.
  double best_e = 1e9, best_d = 0.0;
  double overlap_e = 0.0;
  for (double d = 0.0; d < 14.0; d += 0.25) {
    Pose p = probe.neutral_pose();
    p.translation = {d, 0, 0};
    const double e = intermolecular_energy(grid, probe, probe.conformation(p));
    if (d == 0.0) overlap_e = e;
    if (e < best_e) {
      best_e = e;
      best_d = d;
    }
  }
  EXPECT_LT(best_e, 0.0);       // somewhere the probe binds favourably
  EXPECT_GT(overlap_e, best_e); // the receptor centre clashes
  EXPECT_GT(best_d, 0.0);
}

TEST(VinaScore, HbondNeedsComplementaryRoles) {
  // A donor probe near a backbone O (acceptor) scores better than a carbon
  // probe at the same spot.
  const Structure rec = test_receptor();
  const NeighbourIndex grid(type_receptor(rec), 8.0);
  // Find a backbone O atom and park the probe at H-bond distance from it.
  Vec3 o_pos;
  for (const Residue& r : rec.residues) {
    if (const Atom* o = r.find("O")) {
      o_pos = o->pos;
      break;
    }
  }
  auto energy_at = [&](const Ligand& probe) {
    Pose p = probe.neutral_pose();
    p.translation = o_pos + Vec3{0.0, 0.0, 2.9};
    return intermolecular_energy(grid, probe, probe.conformation(p));
  };
  Ligand donor = two_atom_probe('N', 'C');
  {
    // Mark the nitrogen as a donor.
    std::vector<LigandAtom> atoms = donor.atoms();
    atoms[0].donor = true;
    donor = Ligand(std::move(atoms), {}, "donor-probe");
  }
  const Ligand carbon = two_atom_probe('C', 'C');
  EXPECT_LT(energy_at(donor), energy_at(carbon));
}

TEST(VinaScore, AffinityTorsionPenalty) {
  EXPECT_DOUBLE_EQ(affinity_from_energy(-8.0, 0), -8.0);
  EXPECT_GT(affinity_from_energy(-8.0, 6), -8.0);  // flexible ligand scores worse
  EXPECT_NEAR(affinity_from_energy(-8.0, 6), -8.0 / (1.0 + 0.05846 * 6), 1e-12);
}

TEST(VinaScore, GridMatchesBruteForceNeighbourhood) {
  const Structure rec = test_receptor("PWWERYQP");
  const auto typed = type_receptor(rec);
  const NeighbourIndex grid(typed, 8.0);
  Vec3 origin = typed[0].pos;
  for (const ReceptorAtom& a : typed) {
    origin = {std::min(origin.x, a.pos.x), std::min(origin.y, a.pos.y),
              std::min(origin.z, a.pos.z)};
  }
  auto cell = [&](double v, double o) { return static_cast<int>(std::floor((v - o) / 8.0)); };
  for (const Vec3& probe : {Vec3{2.0, -1.0, 3.0}, Vec3{-9.5, 4.0, 0.5}, Vec3{0.0, 0.0, 0.0}}) {
    std::vector<int> visited;
    grid.for_neighbors(probe, [&](int i) { visited.push_back(i); });
    // Every atom within the cutoff must be visited by the grid.
    const std::set<int> from_grid(visited.begin(), visited.end());
    for (std::size_t i = 0; i < typed.size(); ++i) {
      if (typed[i].pos.distance(probe) <= 8.0) {
        EXPECT_TRUE(from_grid.count(static_cast<int>(i))) << i;
      }
    }
    // ... in the walk order: cells in nested (dx, dy, dz) order, ascending
    // atom index within a cell.
    std::vector<int> expected;
    const int px = cell(probe.x, origin.x), py = cell(probe.y, origin.y),
              pz = cell(probe.z, origin.z);
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dz = -1; dz <= 1; ++dz) {
          for (std::size_t i = 0; i < typed.size(); ++i) {
            const Vec3& a = typed[i].pos;
            if (cell(a.x, origin.x) == px + dx && cell(a.y, origin.y) == py + dy &&
                cell(a.z, origin.z) == pz + dz) {
              expected.push_back(static_cast<int>(i));
            }
          }
        }
      }
    }
    EXPECT_EQ(visited, expected);
  }
}

/// The hashed 27-cell neighbour walk the flat index replaced and the
/// one-pass pair loop the two-pass kernel replaced, kept as the bit-identity
/// oracle.
class HashedNeighbourIndex {
 public:
  explicit HashedNeighbourIndex(std::vector<ReceptorAtom> atoms)
      : atoms_(std::move(atoms)), cell_(8.0) {
    origin_ = atoms_[0].pos;
    for (const ReceptorAtom& a : atoms_) {
      origin_.x = std::min(origin_.x, a.pos.x);
      origin_.y = std::min(origin_.y, a.pos.y);
      origin_.z = std::min(origin_.z, a.pos.z);
    }
    for (std::size_t i = 0; i < atoms_.size(); ++i) {
      const Vec3 rel = atoms_[i].pos - origin_;
      cells_[key(cell_index(rel.x), cell_index(rel.y), cell_index(rel.z))].push_back(
          static_cast<int>(i));
    }
  }

  template <typename Fn>
  void for_neighbors(const Vec3& p, Fn&& fn) const {
    const int cx = cell_index(p.x - origin_.x);
    const int cy = cell_index(p.y - origin_.y);
    const int cz = cell_index(p.z - origin_.z);
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dz = -1; dz <= 1; ++dz) {
          const auto it = cells_.find(key(cx + dx, cy + dy, cz + dz));
          if (it == cells_.end()) continue;
          for (int idx : it->second) fn(idx);
        }
      }
    }
  }

  /// The one-pass pair loop: the term of every in-cutoff pair of a ligand
  /// atom `la` at `lp`, in visit order.
  std::vector<double> terms(const LigandAtom& la, const Vec3& lp,
                            const VinaWeights& w = VinaWeights{}) const {
    const double cutoff2 = 8.0 * 8.0;
    const double lr = vdw_radius(la.element);
    std::vector<double> out;
    for_neighbors(lp, [&](int ri) {
      const ReceptorAtom& ra = atoms_[static_cast<std::size_t>(ri)];
      const double d2 = lp.distance2(ra.pos);
      if (d2 > cutoff2) return;
      const double d = std::sqrt(d2);
      const double ds = d - lr - vdw_radius(ra.element);

      double e = w.gauss1 * std::exp(-(ds / 0.5) * (ds / 0.5));
      const double g2 = (ds - 3.0) / 2.0;
      e += w.gauss2 * std::exp(-g2 * g2);
      if (ds < 0.0) e += w.repulsion * ds * ds;
      if (la.hydrophobic && ra.hydrophobic) e += w.hydrophobic * slope_step(ds, 0.5, 1.5);
      const bool hb = (la.donor && ra.acceptor) || (la.acceptor && ra.donor);
      if (hb) e += w.hbond * slope_step(ds, -0.7, 0.0);
      out.push_back(e);
    });
    return out;
  }

  double energy(const Ligand& ligand, const std::vector<Vec3>& coords,
                const VinaWeights& w = VinaWeights{}) const {
    double total = 0.0;
    for (std::size_t li = 0; li < coords.size(); ++li) {
      const LigandAtom& la = ligand.atoms()[li];
      if (la.element == 'H') continue;
      for (double e : terms(la, coords[li], w)) total += e;
    }
    return total;
  }

  const Vec3& origin() const { return origin_; }

 private:
  static double slope_step(double x, double good, double bad) {
    if (x <= good) return 1.0;
    if (x >= bad) return 0.0;
    return (bad - x) / (bad - good);
  }
  int cell_index(double v) const { return static_cast<int>(std::floor(v / cell_)); }
  static long key(int x, int y, int z) {
    return (static_cast<long>(x) & 0x1FFFFF) | ((static_cast<long>(y) & 0x1FFFFF) << 21) |
           ((static_cast<long>(z) & 0x1FFFFF) << 42);
  }

  std::vector<ReceptorAtom> atoms_;
  double cell_;
  Vec3 origin_;
  std::unordered_map<long, std::vector<int>> cells_;
};

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Bit patterns of a term list.
std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (double x : v) out.push_back(bits(x));
  return out;
}

/// Both kernel overloads at `p`, from an incoming total, against the
/// one-pass oracle: the recorded terms equal the oracle's value by value and
/// in order, and both sums are the oracle's terms added one by one.
void expect_kernel_matches_oracle(const NeighbourIndex& flat, const HashedNeighbourIndex& hashed,
                                  const LigandAtom& atom, const Vec3& p) {
  const double incoming = 0.375;
  const std::vector<double> expected = hashed.terms(atom, p);
  double sum = incoming;
  for (double e : expected) sum += e;
  std::vector<double> recorded = {-1.0};  // appended to, never cleared
  EXPECT_EQ(bits(accumulate_point_energy(flat, p, atom, incoming, VinaWeights{}, recorded)),
            bits(sum));
  ASSERT_FALSE(recorded.empty());
  EXPECT_EQ(recorded.front(), -1.0);
  recorded.erase(recorded.begin());
  EXPECT_EQ(bits_of(recorded), bits_of(expected));
  EXPECT_EQ(bits(accumulate_point_energy(flat, p, atom, incoming)), bits(sum));
}

/// Probe atoms of each chemistry: hydrophobic carbon, donor N, acceptor O.
std::vector<LigandAtom> probe_atoms() {
  std::vector<LigandAtom> out(3);
  const char elements[3] = {'C', 'N', 'O'};
  for (int role = 0; role < 3; ++role) {
    LigandAtom& a = out[static_cast<std::size_t>(role)];
    a.element = elements[role];
    a.hydrophobic = role == 0;
    a.donor = role == 1;
    a.acceptor = role == 2;
  }
  return out;
}

TEST(VinaScore, FlatIndexMatchesHashedWalkBitForBit) {
  // Reference receptors of an S, an M and an L entry.
  for (const char* id : {"6p86", "2qbs", "4jpy"}) {
    SCOPED_TRACE(id);
    const std::vector<ReceptorAtom> typed =
        type_receptor(reference_structure(entry_by_id(id)));
    const NeighbourIndex flat(typed, 8.0);
    const HashedNeighbourIndex hashed(typed);
    const Ligand ligand = generate_ligand(id);
    Vec3 lo = typed[0].pos, hi = typed[0].pos;
    for (const ReceptorAtom& a : typed) {
      lo = {std::min(lo.x, a.pos.x), std::min(lo.y, a.pos.y), std::min(lo.z, a.pos.z)};
      hi = {std::max(hi.x, a.pos.x), std::max(hi.y, a.pos.y), std::max(hi.z, a.pos.z)};
    }

    std::uint64_t state = fnv1a(id);
    auto uniform = [&]() {
      return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
    };
    // Seeded poses over the receptor box grown by 20 A on each side, so
    // some ligands sit wholly or partly outside the receptor's cells; each
    // atom's recorded terms match the oracle's too.
    for (int n = 0; n < 200; ++n) {
      Pose pose = ligand.neutral_pose();
      pose.translation = {lo.x - 20.0 + uniform() * (hi.x - lo.x + 40.0),
                          lo.y - 20.0 + uniform() * (hi.y - lo.y + 40.0),
                          lo.z - 20.0 + uniform() * (hi.z - lo.z + 40.0)};
      pose.orientation = Quat::random(uniform(), uniform(), uniform());
      for (double& t : pose.torsions) t = (2.0 * uniform() - 1.0) * kPi;
      const std::vector<Vec3> coords = ligand.conformation(pose);
      EXPECT_EQ(bits(intermolecular_energy(flat, ligand, coords)),
                bits(hashed.energy(ligand, coords)))
          << "pose " << n;
      for (std::size_t li = 0; li < coords.size(); ++li) {
        expect_kernel_matches_oracle(flat, hashed, ligand.atoms()[li], coords[li]);
      }
    }

    // Single atoms exactly on 8 A cell boundaries (and one cell beyond the
    // occupied range), for every probe chemistry; the visit order matches
    // too.
    for (const LigandAtom& probe : probe_atoms()) {
      const Ligand atom({probe}, {}, "probe");
      const Vec3& o = hashed.origin();
      for (int i = -2; i * 8.0 <= hi.x - o.x + 16.0; ++i) {
        for (int j = -2; j * 8.0 <= hi.y - o.y + 16.0; ++j) {
          for (int k = -2; k * 8.0 <= hi.z - o.z + 16.0; k += 2) {
            const Vec3 p{o.x + 8.0 * i, o.y + 8.0 * j, o.z + 8.0 * k + 4.0 * (i & 1)};
            EXPECT_EQ(bits(intermolecular_energy(flat, atom, {p})),
                      bits(hashed.energy(atom, {p})));
            if (!probe.hydrophobic) continue;
            std::vector<int> a, b;
            flat.for_neighbors(p, [&](int r) { a.push_back(r); });
            hashed.for_neighbors(p, [&](int r) { b.push_back(r); });
            EXPECT_EQ(a, b);
          }
        }
      }
    }
  }
}

TEST(VinaScore, TwoPassKernelMatchesOnePassOracleAtChunkAndCutoffEdges) {
  // A synthetic receptor in [0, 24)^3 with an atom at the origin, so its
  // cells are [0, 8), [8, 16) and [16, 24) on each axis.  A point in the
  // middle cell, (12, 12, 12), walks nine runs: each is one (x, y) column of
  // cells over all three z cells.  Column sizes: 200 atoms (three full
  // 64-slot chunks and a partial one), 64 (exactly one chunk), 65 (one
  // chunk and one slot), 1, and a few near the origin.
  const Vec3 centre{12.0, 12.0, 12.0};
  std::uint64_t state = fnv1a("dense receptor");
  auto uniform = [&]() { return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53; };
  std::vector<ReceptorAtom> atoms;
  auto add = [&](const Vec3& pos) {
    ReceptorAtom a;
    a.pos = pos;
    const std::size_t kind = atoms.size() % 4;
    a.element = "CNOS"[kind];
    a.hydrophobic = kind == 0 || kind == 3;
    a.donor = kind == 1;
    a.acceptor = kind == 2 || kind == 3;
    atoms.push_back(a);
  };
  add({0.0, 0.0, 0.0});
  for (int i = 0; i < 3; ++i) add({uniform() * 7.9, uniform() * 7.9, uniform() * 7.9});
  auto column = [&](double x0, double y0, int count) {
    for (int i = 0; i < count; ++i) {
      add({x0 + uniform() * 7.9, y0 + uniform() * 7.9, uniform() * 23.9});
    }
  };
  column(8.0, 8.0, 197);
  // Exactly at the cutoff from the centre (d2 == 64), and one ulp in and out.
  add(centre + Vec3{0.0, 0.0, -8.0});
  add({centre.x, centre.y, std::nextafter(20.0, 24.0)});
  add({centre.x, centre.y, std::nextafter(20.0, 0.0)});
  column(0.0, 8.0, 64);
  column(16.0, 8.0, 64);
  add(centre + Vec3{8.0, 0.0, 0.0});  // the 65th of column (16, 8), on the cutoff
  add({12.0, 4.0, 12.0});             // the only atom of column (8, 0), on the cutoff
  const NeighbourIndex flat(atoms, 8.0);
  const HashedNeighbourIndex hashed(atoms);

  int visited = 0;
  flat.for_neighbors(centre, [&](int) { ++visited; });
  EXPECT_EQ(visited, static_cast<int>(atoms.size()));

  for (const LigandAtom& atom : probe_atoms()) {
    SCOPED_TRACE(std::string(1, atom.element));
    // The centre keeps more pairs than one chunk holds, but not every atom.
    const std::vector<double> at_centre = hashed.terms(atom, centre);
    ASSERT_GT(at_centre.size(), 64u);
    ASSERT_LT(at_centre.size(), atoms.size() - 1);
    expect_kernel_matches_oracle(flat, hashed, atom, centre);
    // Seeded points over the box grown by 8 A, so some walk empty padding
    // cells and some see only atoms beyond the cutoff.
    for (int n = 0; n < 300; ++n) {
      const Vec3 p{-8.0 + uniform() * 40.0, -8.0 + uniform() * 40.0, -8.0 + uniform() * 40.0};
      expect_kernel_matches_oracle(flat, hashed, atom, p);
    }
    // A padding-cell point that walks the origin's column with every atom
    // beyond the cutoff: no terms, and the incoming total comes back.
    const Vec3 corner{-7.9, -7.9, -7.9};
    int corner_visits = 0;
    flat.for_neighbors(corner, [&](int) { ++corner_visits; });
    EXPECT_GT(corner_visits, 0);
    EXPECT_TRUE(hashed.terms(atom, corner).empty());
    expect_kernel_matches_oracle(flat, hashed, atom, corner);
  }

  // Two atoms, one exactly on the cutoff from the probe: one term.
  std::vector<ReceptorAtom> two(2, atoms[0]);  // both at the origin
  two[1].pos = {8.0, 0.0, 0.0};
  const NeighbourIndex tiny(two, 8.0);
  std::vector<double> one;
  accumulate_point_energy(tiny, {-8.0, 0.0, 0.0}, probe_atoms()[0], 0.0, VinaWeights{}, one);
  EXPECT_EQ(one.size(), 1u);
}

/// True where the build has the AVX2 body and the CPU has AVX2 and FMA.
bool avx2_body_runs_here() {
#if defined(QDB_NO_AVX2) || !(defined(__x86_64__) || defined(_M_X64))
  return false;
#else
  return __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("fma") != 0;
#endif
}

TEST(VinaSimd, ActiveOnAvx2FmaHost) {
  // A silent fall back to the scalar body would cost time and pass every
  // other test; on an AVX2+FMA host a build with the AVX2 body must use it.
  if (!avx2_body_runs_here()) GTEST_SKIP() << "no AVX2 body or CPU without AVX2+FMA";
  EXPECT_TRUE(vina_simd::active());
}

TEST(VinaSimd, ExpMatchesStdExpBitForBit) {
  if (!avx2_body_runs_here()) GTEST_SKIP() << "no AVX2 body or CPU without AVX2+FMA";
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> args = {
      0.0, -0.0, 0x1p-54, -0x1p-54, 0x1.fffffffffffffp-55, -0x1.fffffffffffffp-55,
      0x1.0000000000001p-54, -0x1.0000000000001p-54, 0x1p-1074, -0x1p-1074, 0x1p-1022,
      -0x1p-60, -1.0, -0.5, -90.0, 0.5, 1.0, 88.0, 511.99, -511.99,
      std::nextafter(512.0, 0.0), std::nextafter(-512.0, 0.0), 512.0, -512.0, 700.0, -700.0,
      -708.3, -708.4, -709.0, -720.0, -740.0, -744.44, -745.1, -745.13, -745.2, -746.0, -1000.0,
      709.7, 709.78, 709.8, 710.0, 1000.0, inf, -inf, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  // Ten million seeded arguments over [-90, 0], the range the terms' exps
  // take, in blocks of four lanes.
  std::uint64_t state = fnv1a("exp4");
  while (args.size() < 10'000'000 + 64) {
    args.push_back(-90.0 * static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53);
  }
  while (args.size() % 4 != 0) args.push_back(-1.0);
  std::size_t mismatches = 0;
  double got[4];
  for (std::size_t i = 0; i < args.size(); i += 4) {
    vina_simd::exp4(&args[i], got);
    for (std::size_t l = 0; l < 4; ++l) {
      if (bits(got[l]) != bits(std::exp(args[i + l])) && ++mismatches <= 10) {
        ADD_FAILURE() << "exp(" << std::hexfloat << args[i + l] << ") = " << got[l]
                      << ", std::exp gives " << std::exp(args[i + l]);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// The distance along one axis at which a pair of vdW radii `lr`, `rr` has
/// surface distance exactly `ds` in the kernel's arithmetic
/// (sqrt(d * d) - lr - rr), or NaN if no double near ds + lr + rr gives it.
double distance_for_ds(double ds, double lr, double rr) {
  double d = ds + lr + rr;
  for (int i = 0; i < 64; ++i) d = std::nextafter(d, 0.0);
  for (int i = 0; i < 128; ++i, d = std::nextafter(d, 100.0)) {
    if (bits(std::sqrt(d * d) - lr - rr) == bits(ds)) return d;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Every chemistry a ligand atom can have: three elements, eight
/// (hydrophobic, donor, acceptor) combinations.
std::vector<LigandAtom> all_probe_chemistries() {
  std::vector<LigandAtom> out;
  for (char element : {'C', 'N', 'O'}) {
    for (int flags = 0; flags < 8; ++flags) {
      LigandAtom a;
      a.element = element;
      a.hydrophobic = (flags & 1) != 0;
      a.donor = (flags & 2) != 0;
      a.acceptor = (flags & 4) != 0;
      out.push_back(a);
    }
  }
  return out;
}

/// The dispatching kernel (the AVX2 body here) and the scalar body against
/// the one-pass oracle at `p`: equal terms in walk order and equal sums,
/// by bit pattern.
void expect_bodies_match_oracle(const NeighbourIndex& flat, const HashedNeighbourIndex& hashed,
                                const LigandAtom& atom, const Vec3& p) {
  const double incoming = -0.125;
  const std::vector<double> expected = hashed.terms(atom, p);
  double sum = incoming;
  for (double e : expected) sum += e;
  std::vector<double> simd, scalar;
  EXPECT_EQ(bits(accumulate_point_energy(flat, p, atom, incoming, VinaWeights{}, simd)), bits(sum));
  EXPECT_EQ(bits(accumulate_point_energy_scalar(flat, p, atom, incoming, VinaWeights{}, scalar)),
            bits(sum));
  EXPECT_EQ(bits(accumulate_point_energy(flat, p, atom, incoming)), bits(sum));
  EXPECT_EQ(bits_of(simd), bits_of(expected));
  EXPECT_EQ(bits_of(scalar), bits_of(expected));
}

TEST(VinaScore, SimdKernelMatchesOnePassOracleAtBatchRunAndSlopeEdges) {
  // Receptor atoms of every flag combination (kinds cycle through all eight
  // (hydrophobic, donor, acceptor) sets and all four elements).
  std::vector<ReceptorAtom> atoms;
  auto add = [&](const Vec3& pos, char element = 0) {
    ReceptorAtom a;
    a.pos = pos;
    const std::size_t kind = atoms.size();
    a.element = element != 0 ? element : "CNOS"[kind % 4];
    a.hydrophobic = (kind & 1) != 0;
    a.donor = (kind & 2) != 0;
    a.acceptor = (kind & 4) != 0;
    atoms.push_back(a);
  };
  std::uint64_t state = fnv1a("simd receptor");
  auto uniform = [&]() { return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53; };

  // Cells are [0, 8), [8, 16), [16, 24) per axis; the centre (12, 12, 12)
  // walks nine runs, one (x, y) column of cells each.  The runs are 1 (the
  // anchor at the origin), 0, 2, 3, 4, 5, 6, 7 and 333 atoms long: every
  // length below two vectors and every length mod 4.  The 333 atoms of
  // column (2, 2) all lie within 7.2 A of the centre, more pairs than two
  // batches hold, so batches flush in the middle of a run.
  const Vec3 centre{12.0, 12.0, 12.0};
  add({0.0, 0.0, 0.0});
  const int sizes[9] = {0, 0, 2, 3, 4, 5, 6, 7, 333};
  for (int c = 0; c < 9; ++c) {
    const double x0 = 8.0 * (c / 3), y0 = 8.0 * (c % 3);
    for (int i = 0; i < sizes[c]; ++i) {
      if (c == 8) {
        add({16.05 + 0.9 * uniform(), 16.05 + 0.9 * uniform(), 11.0 + 2.0 * uniform()});
      } else {
        add({x0 + 7.9 * uniform(), y0 + 7.9 * uniform(), 23.9 * uniform()});
      }
    }
  }
  ASSERT_GT(sizes[8], vina_simd::kBatchPairs * 2);
  const NeighbourIndex flat(atoms, 8.0);
  const HashedNeighbourIndex hashed(atoms);
  int visited = 0;
  flat.for_neighbors(centre, [&](int) { ++visited; });
  EXPECT_EQ(visited, static_cast<int>(atoms.size()));
  for (const LigandAtom& atom : all_probe_chemistries()) {
    SCOPED_TRACE(std::string(1, atom.element) + " flags " +
                 std::to_string(atom.hydrophobic + 2 * atom.donor + 4 * atom.acceptor));
    ASSERT_GT(hashed.terms(atom, centre).size(),
              static_cast<std::size_t>(2 * vina_simd::kBatchPairs));
    expect_bodies_match_oracle(flat, hashed, atom, centre);
    // Seeded points over the box grown by 8 A: empty walks, walks with no
    // pair in the cutoff, and every batch split in between.
    for (int n = 0; n < 200; ++n) {
      const Vec3 p{-8.0 + uniform() * 40.0, -8.0 + uniform() * 40.0, -8.0 + uniform() * 40.0};
      expect_bodies_match_oracle(flat, hashed, atom, p);
    }
  }

  // Surface distances exactly at the slopes' knees (0.5, 1.5; -0.7, 0),
  // at the gauss2 centre (3) and at 0, where an exp's argument is -0, and
  // at the distances one ulp either side of each, against receptor atoms of
  // every flag combination on the x axis from a ligand atom at the origin.
  for (const LigandAtom& atom : all_probe_chemistries()) {
    SCOPED_TRACE(std::string(1, atom.element) + " flags " +
                 std::to_string(atom.hydrophobic + 2 * atom.donor + 4 * atom.acceptor));
    const double lr = vdw_radius(atom.element);
    atoms.clear();
    for (double knee : {0.5, 1.5, -0.7, 0.0, 3.0}) {
      // Each knee is exact for some receptor elements only.
      int hits = 0;
      for (char element : {'C', 'N', 'O', 'S'}) {
        const double rr = vdw_radius(element);
        const double d = distance_for_ds(knee, lr, rr);
        if (std::isnan(d)) continue;
        ++hits;
        // The nearest distances whose surface distance differs from the
        // knee: one ulp of ds either side, where ds is that fine.
        auto ds_at = [&](double at) { return std::sqrt(at * at) - lr - rr; };
        double below = std::nextafter(d, 0.0), above = std::nextafter(d, 100.0);
        while (ds_at(below) == knee) below = std::nextafter(below, 0.0);
        while (ds_at(above) == knee) above = std::nextafter(above, 100.0);
        ASSERT_LT(ds_at(below), knee);
        ASSERT_GT(ds_at(above), knee);
        for (double at : {below, d, above}) {
          for (int kind = 0; kind < 8; ++kind) add({-at, 0.0, 0.0}, element);
        }
      }
      ASSERT_GT(hits, 0) << knee;
    }
    const NeighbourIndex line(atoms, 8.0);
    const HashedNeighbourIndex line_hashed(atoms);
    ASSERT_EQ(line_hashed.terms(atom, {0.0, 0.0, 0.0}).size(), atoms.size());
    expect_bodies_match_oracle(line, line_hashed, atom, {0.0, 0.0, 0.0});
  }
}

TEST(VinaSimd, MatchesScalarBodyTermByTermOnEval6Receptors) {
  if (!avx2_body_runs_here()) GTEST_SKIP() << "no AVX2 body or CPU without AVX2+FMA";
  for (const char* id : {"6p86", "3eax", "1e2l", "2qbs", "1yc4", "4jpy"}) {
    SCOPED_TRACE(id);
    const std::vector<ReceptorAtom> typed = type_receptor(reference_structure(entry_by_id(id)));
    const NeighbourIndex grid(typed, 8.0);
    const Ligand ligand = generate_ligand(id);
    Vec3 lo = typed[0].pos, hi = typed[0].pos;
    for (const ReceptorAtom& a : typed) {
      lo = {std::min(lo.x, a.pos.x), std::min(lo.y, a.pos.y), std::min(lo.z, a.pos.z)};
      hi = {std::max(hi.x, a.pos.x), std::max(hi.y, a.pos.y), std::max(hi.z, a.pos.z)};
    }
    std::uint64_t state = fnv1a(id);
    auto uniform = [&]() { return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53; };
    std::size_t pairs = 0;
    // Seeded poses over the receptor box grown by 4 A on each side.
    for (int n = 0; n < 300; ++n) {
      Pose pose = ligand.neutral_pose();
      pose.translation = {lo.x - 4.0 + uniform() * (hi.x - lo.x + 8.0),
                          lo.y - 4.0 + uniform() * (hi.y - lo.y + 8.0),
                          lo.z - 4.0 + uniform() * (hi.z - lo.z + 8.0)};
      pose.orientation = Quat::random(uniform(), uniform(), uniform());
      for (double& t : pose.torsions) t = (2.0 * uniform() - 1.0) * kPi;
      const std::vector<Vec3> coords = ligand.conformation(pose);
      for (std::size_t li = 0; li < coords.size(); ++li) {
        const LigandAtom& la = ligand.atoms()[li];
        std::vector<double> simd, scalar;
        const double a = accumulate_point_energy(grid, coords[li], la, 1.0, VinaWeights{}, simd);
        const double b =
            accumulate_point_energy_scalar(grid, coords[li], la, 1.0, VinaWeights{}, scalar);
        ASSERT_EQ(bits(a), bits(b)) << "pose " << n << " atom " << li;
        ASSERT_EQ(bits_of(simd), bits_of(scalar)) << "pose " << n << " atom " << li;
        pairs += simd.size();
      }
    }
    EXPECT_GT(pairs, 10'000u);
  }
}

/// `base` with a hydrogen after every third heavy atom, riding the same
/// torsions as its heavy atom, so hydrogens sit between scored atoms.
Ligand with_hydrogens(const Ligand& base) {
  std::vector<LigandAtom> atoms;
  std::vector<int> new_index;
  std::vector<std::pair<int, int>> riders;  // (hydrogen, its heavy atom), new indices
  for (std::size_t i = 0; i < base.atoms().size(); ++i) {
    new_index.push_back(static_cast<int>(atoms.size()));
    atoms.push_back(base.atoms()[i]);
    if (i % 3 != 2) continue;
    LigandAtom h;
    h.name = "H";
    h.name += std::to_string(i);
    h.element = 'H';
    h.local_pos = base.atoms()[i].local_pos + Vec3{1.0, 0.0, 0.0};
    riders.emplace_back(static_cast<int>(atoms.size()), new_index.back());
    atoms.push_back(h);
  }
  std::vector<TorsionBond> torsions = base.torsions();
  for (TorsionBond& t : torsions) {
    t.axis_a = new_index[static_cast<std::size_t>(t.axis_a)];
    t.axis_b = new_index[static_cast<std::size_t>(t.axis_b)];
    for (int& m : t.moved) m = new_index[static_cast<std::size_t>(m)];
    const std::vector<int> heavy_moved = t.moved;
    for (const auto& [h, heavy] : riders) {
      if (std::find(heavy_moved.begin(), heavy_moved.end(), heavy) != heavy_moved.end()) {
        t.moved.push_back(h);
      }
    }
  }
  return Ligand(std::move(atoms), std::move(torsions), base.name() + "+H");
}

TEST(VinaScore, ReuseScorerMatchesFreshBitForBit) {
  // Seeded chains of local-search-like moves on reference receptors of an
  // S, an M and an L entry; every incremental energy must be the fresh
  // intermolecular_energy by bit pattern.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const char* id : {"6p86", "2qbs", "4jpy"}) {
    const std::vector<ReceptorAtom> typed =
        type_receptor(reference_structure(entry_by_id(id)));
    const NeighbourIndex grid(typed, 8.0);
    Vec3 lo = typed[0].pos, hi = typed[0].pos;
    for (const ReceptorAtom& a : typed) {
      lo = {std::min(lo.x, a.pos.x), std::min(lo.y, a.pos.y), std::min(lo.z, a.pos.z)};
      hi = {std::max(hi.x, a.pos.x), std::max(hi.y, a.pos.y), std::max(hi.z, a.pos.z)};
    }
    const Ligand plain = generate_ligand(id);
    ASSERT_GT(plain.num_torsions(), 0);
    for (const Ligand& ligand : {plain, with_hydrogens(plain)}) {
      SCOPED_TRACE(std::string(id) + " " + ligand.name());
      std::uint64_t state = fnv1a(ligand.name());
      auto uniform = [&]() { return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53; };
      auto below = [&](std::size_t n) { return static_cast<std::size_t>(splitmix64(state) % n); };

      IncrementalScorer scorer(grid, ligand);
      ScoredConformation incumbent, trial;
      // Start inside the receptor box; the jumps below carry the ligand
      // partly or wholly outside the index box and back.
      Pose pose = ligand.neutral_pose();
      pose.translation = (lo + hi) * 0.5;
      std::vector<Vec3> coords = ligand.conformation(pose);
      EXPECT_EQ(bits(scorer.score(coords, nullptr, incumbent)),
                bits(intermolecular_energy(grid, ligand, coords)));
      for (int step = 0; step < 200; ++step) {
        Pose cand = pose;
        const std::size_t kind = below(4);
        if (kind == 0 || kind == 3) {  // single torsion (the common move)
          cand.torsions[below(cand.torsions.size())] += (2.0 * uniform() - 1.0) * 0.5;
        }
        if (kind == 1 && uniform() < 0.2) {  // rigid: a jump over the box grown by 12 A
          cand.translation = {lo.x - 12.0 + uniform() * (hi.x - lo.x + 24.0),
                              lo.y - 12.0 + uniform() * (hi.y - lo.y + 24.0),
                              lo.z - 12.0 + uniform() * (hi.z - lo.z + 24.0)};
        } else if (kind == 1 || kind == 3) {  // rigid: a small shift
          cand.translation += Vec3{(2.0 * uniform() - 1.0) * 0.6, (2.0 * uniform() - 1.0) * 0.6,
                                   (2.0 * uniform() - 1.0) * 0.6};
        }
        if (kind == 2) {  // rigid: rotation
          cand.orientation = (Quat::from_axis_angle({uniform(), uniform(), 1.0}, 0.25) *
                              cand.orientation).normalized();
        }
        coords = ligand.conformation(cand);
        const double fresh = intermolecular_energy(grid, ligand, coords);
        ASSERT_EQ(bits(scorer.score(coords, &incumbent, trial)), bits(fresh)) << "step " << step;
        if (uniform() < 0.4) {
          std::swap(incumbent, trial);
          pose = cand;
        }
      }
      EXPECT_GT(scorer.reused_pairs(), 0u);
      EXPECT_GT(scorer.fresh_pairs(), 0u);
      EXPECT_EQ(scorer.calls(), 201u);

      // Wholly outside the index box, then a torsion move out there (atoms
      // outside reused as empty ranges), then back into the receptor.
      Pose far = pose;
      far.translation = hi + Vec3{1e4, 0.0, 0.0};
      for (int k = 0; k < 2; ++k) {
        coords = ligand.conformation(far);
        EXPECT_EQ(bits(scorer.score(coords, &incumbent, trial)), bits(0.0));
        std::swap(incumbent, trial);
        far.torsions[0] += 0.3;
      }
      far.translation = (lo + hi) * 0.5;
      coords = ligand.conformation(far);
      EXPECT_EQ(bits(scorer.score(coords, &incumbent, trial)),
                bits(intermolecular_energy(grid, ligand, coords)));

      // Back near the receptor for the non-finite cases, so every heavy atom
      // has terms to lose.
      pose.translation = (lo + hi) * 0.5;
      coords = ligand.conformation(pose);
      scorer.score(coords, nullptr, incumbent);
      std::size_t heavy = 0;
      while (ligand.atoms()[heavy].element == 'H') ++heavy;
      std::vector<Vec3> broken = coords;
      broken[heavy].y = nan;
      // NaN both ways: into a NaN conformation, and again from it with the
      // same NaN atom, which must be recomputed, not re-added as no terms.
      EXPECT_EQ(bits(scorer.score(broken, &incumbent, trial)),
                bits(intermolecular_energy(grid, ligand, broken)));
      EXPECT_TRUE(std::isnan(trial.energy));
      std::swap(incumbent, trial);
      EXPECT_EQ(bits(scorer.score(broken, &incumbent, trial)),
                bits(intermolecular_energy(grid, ligand, broken)));
      EXPECT_TRUE(std::isnan(trial.energy));
      // And out again: the repaired atom is recomputed too.
      EXPECT_EQ(bits(scorer.score(coords, &incumbent, trial)),
                bits(intermolecular_energy(grid, ligand, coords)));
      EXPECT_FALSE(std::isnan(trial.energy));
    }
  }
}

TEST(VinaScore, FarPointContributesExactlyZero) {
  const Structure rec = test_receptor();
  const NeighbourIndex grid(type_receptor(rec), 8.0);
  const Ligand probe = two_atom_probe();
  for (const Vec3& far : {Vec3{1e12, 0, 0}, Vec3{0, -1e12, 0}, Vec3{0, 0, 1e300}}) {
    Pose p = probe.neutral_pose();
    p.translation = far;
    EXPECT_EQ(intermolecular_energy(grid, probe, probe.conformation(p)), 0.0);
    int visited = 0;
    grid.for_neighbors(far, [&](int) { ++visited; });
    EXPECT_EQ(visited, 0);
  }
  // A far atom adds exactly nothing to a near atom's energy.
  const Vec3 near{2.0, 0.0, 0.0};
  const std::vector<Vec3> both = {near, {1e12, 1e12, 1e12}};
  const LigandAtom carbon = probe.atoms()[0];
  EXPECT_EQ(bits(intermolecular_energy(grid, probe, both)),
            bits(accumulate_point_energy(grid, near, carbon, 0.0)));
}

TEST(VinaScore, NonFiniteCoordinateGivesNaN) {
  const Structure rec = test_receptor();
  const NeighbourIndex grid(type_receptor(rec), 8.0);
  const Ligand probe = two_atom_probe();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Vec3& bad : {Vec3{nan, 0, 0}, Vec3{0, nan, 0}, Vec3{0, 0, -inf}}) {
    const std::vector<Vec3> coords = {{1.0, 0.0, 0.0}, bad};
    EXPECT_TRUE(std::isnan(intermolecular_energy(grid, probe, coords)));
    int visited = 0;
    grid.for_neighbors(bad, [&](int) { ++visited; });
    EXPECT_EQ(visited, 0);
  }
}

TEST(VinaScore, ReceptorTypingFollowsChemistry) {
  const Structure rec = test_receptor("LKDCS");  // Leu, Lys, Asp, Cys, Ser
  const auto typed = type_receptor(rec);
  bool saw_hydrophobic_c = false, saw_donor_n = false, saw_acceptor_o = false;
  for (const ReceptorAtom& a : typed) {
    EXPECT_NE(a.element, 'H');  // united-atom: hydrogens dropped
    saw_hydrophobic_c |= (a.element == 'C' && a.hydrophobic);
    saw_donor_n |= (a.element == 'N' && a.donor);
    saw_acceptor_o |= (a.element == 'O' && a.acceptor);
  }
  EXPECT_TRUE(saw_hydrophobic_c);
  EXPECT_TRUE(saw_donor_n);
  EXPECT_TRUE(saw_acceptor_o);
}

TEST(PoseRmsd, BoundsOrderAndZero) {
  std::vector<Vec3> a{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}};
  EXPECT_DOUBLE_EQ(pose_rmsd_ub(a, a), 0.0);
  EXPECT_DOUBLE_EQ(pose_rmsd_lb(a, a), 0.0);
  // Swapping two identical-role atoms: lb forgives, ub does not.
  std::vector<Vec3> swapped{{1, 0, 0}, {0, 0, 0}, {2, 0, 0}};
  EXPECT_GT(pose_rmsd_ub(a, swapped), 0.5);
  EXPECT_DOUBLE_EQ(pose_rmsd_lb(a, swapped), 0.0);
  EXPECT_LE(pose_rmsd_lb(a, swapped), pose_rmsd_ub(a, swapped));
  EXPECT_THROW(pose_rmsd_ub(a, {{0, 0, 0}}), PreconditionError);
}

TEST(Dock, FindsFavourablePoses) {
  const Structure rec = test_receptor();
  const Ligand lig = generate_ligand("2bok");
  DockingParams params;
  params.num_runs = 6;
  params.mc_steps = 600;
  params.seed = 11;
  const DockingResult r = dock(rec, lig, params);
  ASSERT_FALSE(r.poses.empty());
  EXPECT_LT(r.best_affinity, -1.0);  // something binds
  EXPECT_LE(r.best_affinity, r.mean_affinity + 1e-12);
  EXPECT_EQ(r.run_best.size(), 6u);
  // Poses are sorted best-first.
  for (std::size_t i = 1; i < r.poses.size(); ++i) {
    EXPECT_LE(r.poses[i - 1].affinity, r.poses[i].affinity);
  }
  EXPECT_LE(r.rmsd_lb_mean, r.rmsd_ub_mean + 1e-12);
}

TEST(Dock, DeterministicPerSeed) {
  const Structure rec = test_receptor("VKDRS");
  const Ligand lig = generate_ligand("3ckz");
  DockingParams params;
  params.num_runs = 3;
  params.mc_steps = 300;
  params.seed = 5;
  const DockingResult a = dock(rec, lig, params);
  const DockingResult b = dock(rec, lig, params);
  EXPECT_DOUBLE_EQ(a.best_affinity, b.best_affinity);
  EXPECT_EQ(a.poses.size(), b.poses.size());
}

TEST(Dock, GoldenBitsMatchParent) {
  // Bit patterns recorded before the local search scored incrementally:
  // docking results must not move by a single bit.  Each case imprints the
  // entry's ligand on its reference (a dock of its own) and then docks the
  // imprinted ligand in the imprint's site box.
  struct Golden {
    const char* id;
    std::uint64_t site[3];
    std::uint64_t best, mean, rmsd_lb, rmsd_ub;
    std::vector<std::uint64_t> run_best, poses;
  };
  const Golden cases[] = {
      {"6p86",
       {0x3ff5130a9e203773ULL, 0xc00f63ae4d952bbaULL, 0xc006722bc7bb3106ULL},
       0xc009ddcced454ff9ULL, 0xc0076067622ad1b0ULL, 0x4015f171dee508faULL,
       0x4016580775ddb3e9ULL,
       {0xc0088556c8dab6a3ULL, 0xc00205c99439fe2dULL, 0xc00918b03e5141f8ULL,
        0xc009ddcced454ff9ULL},
       {0xc009ddcced454ff9ULL, 0xc00918b03e5141f8ULL, 0xc0088556c8dab6a3ULL,
        0xc0060993cac94caaULL, 0xc005539ccd4c713fULL, 0xc00496844b8a430eULL,
        0xc0041d5b99e6f300ULL, 0xc0041287de0ed9a0ULL, 0xc0040b44cea2faa9ULL,
        0xc003d2461bc5161cULL}},
      {"2qbs",
       {0x40126a843c7e806fULL, 0x40160a928fe937f7ULL, 0x3fdf6ba3a80dd385ULL},
       0xc008969b01f23273ULL, 0xc006077fa1e92632ULL, 0x401818defa4509ebULL,
       0x40184c3c7c8525fcULL,
       {0xc007b227d4e808c2ULL, 0xc0041a13d701eca9ULL, 0xc008969b01f23273ULL,
        0xc003bb27d9c870e8ULL},
       {0xc008969b01f23273ULL, 0xc007b227d4e808c2ULL, 0xc004a3b863b99bf0ULL,
        0xc0043d330cd6b556ULL, 0xc0041a13d701eca9ULL, 0xc004108e0e62d478ULL,
        0xc0040c9847238b71ULL, 0xc003bb27d9c870e8ULL, 0xc00394570f830cf3ULL,
        0xc002a0aebfabecd8ULL}},
  };
  for (const Golden& g : cases) {
    SCOPED_TRACE(g.id);
    const Structure ref = reference_structure(entry_by_id(g.id));
    const ImprintResult imp = imprint_ligand_with_site(generate_ligand(g.id), ref);
    EXPECT_EQ(bits(imp.site_center.x), g.site[0]);
    EXPECT_EQ(bits(imp.site_center.y), g.site[1]);
    EXPECT_EQ(bits(imp.site_center.z), g.site[2]);
    DockingParams params;
    params.num_runs = 4;
    params.mc_steps = 300;
    params.seed = 17;
    params.box_center = imp.site_center;
    params.box_size = 2.0 * (imp.ligand.radius() + 4.0);
    const DockingResult r = dock(ref, imp.ligand, params);
    EXPECT_EQ(bits(r.best_affinity), g.best);
    EXPECT_EQ(bits(r.mean_affinity), g.mean);
    EXPECT_EQ(bits(r.rmsd_lb_mean), g.rmsd_lb);
    EXPECT_EQ(bits(r.rmsd_ub_mean), g.rmsd_ub);
    std::vector<std::uint64_t> run_best, poses;
    for (double e : r.run_best) run_best.push_back(bits(e));
    for (const ScoredPose& sp : r.poses) poses.push_back(bits(sp.affinity));
    EXPECT_EQ(run_best, g.run_best);
    EXPECT_EQ(poses, g.poses);
  }
}

/// The dock work counters, read as one tuple.
std::vector<std::uint64_t> dock_work_counts() {
  return {obs::counter("dock.score_calls").value(), obs::counter("dock.pairs.fresh").value(),
          obs::counter("dock.pairs.reused").value(), obs::counter("dock.mc_steps").value(),
          obs::counter("dock.mc_accepted").value(), obs::counter("dock.polish_sweeps").value()};
}

std::vector<std::uint64_t> work_of(const std::function<void()>& fn) {
  const std::vector<std::uint64_t> before = dock_work_counts();
  fn();
  std::vector<std::uint64_t> delta = dock_work_counts();
  for (std::size_t i = 0; i < delta.size(); ++i) delta[i] -= before[i];
  return delta;
}

TEST(Dock, WorkCountersDoNotDependOnThreads) {
  const Structure rec = test_receptor();
  const Ligand lig = generate_ligand("2bok");
  ASSERT_GT(lig.num_torsions(), 0);
  DockingParams params;
  params.num_runs = 4;
  params.mc_steps = 200;
  params.seed = 13;
  DockingResult parallel_result, serial_result;
  const std::vector<std::uint64_t> parallel =
      work_of([&] { parallel_result = dock(rec, lig, params); });
  // Inside a parallel_for body the dock's own runs go serially (the
  // one-level rule of common/parallel.h).
  const std::vector<std::uint64_t> serial = work_of([&] {
    parallel_for(2, [&](std::int64_t i) {
      if (i == 0) serial_result = dock(rec, lig, params);
    });
  });
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(bits(parallel_result.best_affinity), bits(serial_result.best_affinity));
  EXPECT_GT(parallel[0], static_cast<std::uint64_t>(params.num_runs));  // score calls
  EXPECT_GT(parallel[1], 0u);  // fresh pair terms
  EXPECT_GT(parallel[2], 0u);  // reused pair terms: the ligand has torsions
  // Every run takes mc_steps / 10 Metropolis steps and accepts some of them.
  EXPECT_EQ(parallel[3], static_cast<std::uint64_t>(params.num_runs * (params.mc_steps / 10)));
  EXPECT_GT(parallel[4], 0u);
  EXPECT_LE(parallel[4], parallel[3]);
  // At least one sweep per local optimisation: the start's, each step's and
  // the final refine.
  EXPECT_GE(parallel[5], parallel[3] + 2u * static_cast<std::uint64_t>(params.num_runs));
}

TEST(Dock, GoldenWorkCountsAtBenchProfile) {
  // The docking work of evaluate(QDock) on each eval6 entry at the
  // benchmark's budgets: both docks (the imprint on the reference and the
  // prediction's), counted by the scorer and the search.  Work is
  // deterministic where time is not: a change that claims to be
  // results-neutral and to do the same work leaves every count here
  // unchanged; one that changes a count updates this table and says why.
  static const char* const kCounters[] = {"dock.score_calls", "dock.pairs.fresh",
                                          "dock.pairs.reused", "dock.mc_steps",
                                          "dock.mc_accepted", "dock.polish_sweeps"};
  struct Golden {
    const char* id;
    std::vector<std::uint64_t> counts;
  };
  const Golden cases[] = {
      {"6p86", {146960, 21568016, 15756558, 1440, 1281, 6062}},
      {"3eax", {109490, 14060505, 5809659, 1440, 1323, 6001}},
      {"1e2l", {159162, 23740814, 22481455, 1440, 1278, 6065}},
      {"2qbs", {172384, 21286576, 22597772, 1440, 1281, 6104}},
      {"1yc4", {146312, 29518619, 21958780, 1440, 1232, 6035}},
      {"4jpy", {157628, 24733552, 21734792, 1440, 1261, 6006}},
  };
  for (const Golden& g : cases) {
    SCOPED_TRACE(g.id);
    const Pipeline pipeline(PipelineOptions::bench_profile());  // cold caches, as eval6
    const std::vector<std::uint64_t> work =
        work_of([&] { pipeline.evaluate(entry_by_id(g.id), Method::QDock); });
    for (std::size_t k = 0; k < std::size(kCounters); ++k) {
      EXPECT_EQ(work[k], g.counts[k]) << kCounters[k];
    }
  }
}

TEST(Dock, MoreRunsNeverWorsenBest) {
  const Structure rec = test_receptor("VKDRS");
  const Ligand lig = generate_ligand("3ckz");
  DockingParams few;
  few.num_runs = 2;
  few.mc_steps = 300;
  few.seed = 9;
  DockingParams many = few;
  many.num_runs = 8;
  const DockingResult a = dock(rec, lig, few);
  const DockingResult b = dock(rec, lig, many);
  EXPECT_LE(b.best_affinity, a.best_affinity + 1e-12);
}

TEST(Imprint, DeterministicAndPreservesTopology) {
  const Structure rec = test_receptor();
  const Ligand generic = generate_ligand("2bok");
  const Ligand a = imprint_ligand(generic, rec);
  const Ligand b = imprint_ligand(generic, rec);
  ASSERT_EQ(a.num_atoms(), generic.num_atoms());
  EXPECT_EQ(a.num_torsions(), generic.num_torsions());
  for (int i = 0; i < a.num_atoms(); ++i) {
    EXPECT_NEAR(a.atoms()[static_cast<std::size_t>(i)].local_pos.distance(
                    b.atoms()[static_cast<std::size_t>(i)].local_pos), 0.0, 1e-12);
  }
}

TEST(Imprint, CreatesFewDirectionalHbondsPlusHydrophobicBody) {
  const Structure rec = test_receptor();
  const Ligand lig = imprint_ligand(generate_ligand("1zsf"), rec);
  int polar = 0, hydrophobic = 0;
  for (const LigandAtom& a : lig.atoms()) {
    polar += (a.donor || a.acceptor);
    hydrophobic += a.hydrophobic;
  }
  // Drug-like: a handful of H-bonding atoms, the rest hydrophobic.
  EXPECT_GE(polar, 1);
  EXPECT_LE(polar, 3 + lig.num_atoms() / 8);
  EXPECT_GT(hydrophobic, lig.num_atoms() / 2);
}

TEST(Imprint, SiteCenterLiesNearTheReceptor) {
  const Structure rec = test_receptor();
  const ImprintResult imp = imprint_ligand_with_site(generate_ligand("3vf7"), rec);
  // The binding site sits within the fragment's neighbourhood.
  double min_d = 1e9;
  for (const Vec3& p : rec.heavy_positions()) min_d = std::min(min_d, p.distance(imp.site_center));
  EXPECT_LT(min_d, 8.0);
}

TEST(Imprint, MoldedLigandBindsReferenceBetterThanGeneric) {
  // The whole point of imprinting: the molded ligand's best pose on the
  // reference is deeper than the generic ligand's.
  const Structure rec = test_receptor("MIITEYMENGAL");
  const Ligand generic = generate_ligand("5nkc");
  const Ligand molded = imprint_ligand(generic, rec);
  DockingParams params;
  params.num_runs = 6;
  params.mc_steps = 600;
  params.seed = 3;
  const DockingResult rg = dock(rec, generic, params);
  const DockingResult rm = dock(rec, molded, params);
  EXPECT_LT(rm.best_affinity, rg.best_affinity);
}

TEST(Dock, SiteBoxConfinesTheSearch) {
  const Structure rec = test_receptor();
  const Ligand lig = generate_ligand("2bok");
  DockingParams params;
  params.num_runs = 3;
  params.mc_steps = 200;
  params.seed = 9;
  params.box_center = Vec3{3.0, 0.0, 0.0};
  params.box_size = 6.0;
  const DockingResult r = dock(rec, lig, params);
  for (const ScoredPose& sp : r.poses) {
    EXPECT_LT(std::abs(sp.pose.translation.x - 3.0), 3.0 + 1e-9);
    EXPECT_LT(std::abs(sp.pose.translation.y), 3.0 + 1e-9);
    EXPECT_LT(std::abs(sp.pose.translation.z), 3.0 + 1e-9);
  }
}

TEST(Dock, CompactReceptorBindsBetterThanExtended) {
  // The docking-side premise of the paper: a well-folded pocket (the exact
  // ground state) accommodates the ligand better than an artificially
  // extended conformation of the same sequence.
  const std::string seq = "MIITEYMENGAL";  // 5nkc, hydrophobic-rich
  const auto aa = parse_sequence(seq);
  FoldingHamiltonian h(aa, HamiltonianWeights::standard(static_cast<int>(aa.size())));
  const SolveResult ground = ExactSolver().solve(h);

  auto build = [&](const std::vector<int>& turns) {
    std::vector<Vec3> trace;
    for (const IVec3& p : walk_positions(turns)) trace.push_back(lattice_to_cartesian(p));
    Structure s = reconstruct_backbone(trace, aa, "cmp");
    add_polar_hydrogens(s);
    assign_partial_charges(s);
    s.center_on_origin();
    return s;
  };
  const Structure folded = build(ground.turns);
  std::vector<int> zigzag(aa.size() - 1);
  for (std::size_t i = 0; i < zigzag.size(); ++i) zigzag[i] = (i % 2 == 0) ? 0 : 1;
  const Structure extended = build(zigzag);

  const Ligand lig = generate_ligand("5nkc");
  DockingParams params;
  params.num_runs = 8;
  params.mc_steps = 800;
  params.seed = 21;
  const DockingResult rf = dock(folded, lig, params);
  const DockingResult re = dock(extended, lig, params);
  EXPECT_LT(rf.best_affinity, re.best_affinity);
}

}  // namespace
}  // namespace qdb
