// The vector kernels, written once over a traits struct T that each
// vector table's translation unit defines (la/kernels_avx2.cc,
// la/kernels_avx512.cc). Include this header only inside the unnamed
// namespace of a kernel-table TU, after that TU's own includes: every
// instantiation then has internal linkage, so no code compiled with one
// table's `-m` flags lands in a COMDAT the linker could pick for another
// TU (la/kernels.h). The header includes nothing and names no intrinsic;
// it is compiled with the flags of the TU that includes it. The scalar
// table includes it for the shared packers alone.
//
// T gives:
//   Vec, Mask          the register and the lane mask of a partial one;
//   kLanes, kMr        doubles per register; GEMM micro-tile rows (the
//                      tile is kMr x 2·kLanes);
//   kStripVecs         registers per spmm_rows strip;
//   kSignStripVecs     registers per sign of a sign-split strip, and the
//                      widest row the one-pass Laplacian walk takes;
//   Zero, Set1, Load, Store, Add, Sub, Mul;
//   Tail(live)         the mask of the first `live` lanes, live in
//                      [0, kLanes]; LoadTail reads dead lanes as +0.0 and
//                      StoreTail never writes them;
//   Fmadd(a, b, c)     a·b + c fused — the GEMM tile and the dot family
//                      only; element-parallel kernels stay unfused;
//   SumLanesN(v)       lane q holds the in-order lane sum of v[q], for
//                      kLanes vectors side by side;
//   Max, Abs, Blend, ProbeMax, Compact: the SPG direction row's max,
//                      |x|, one-lane replace, masked probe update and
//                      nonzero compaction;
// and the dot family, whose lane rules differ between the tables (see
// la/kernels.h): DotLanes, DotTail, DotTails, Ragged and DotChunk, plus
// the whole DotSparse and SquaredDistance.

#ifndef RHCHME_LA_KERNELS_BODY_H_
#define RHCHME_LA_KERNELS_BODY_H_

/// Rows of a narrow group. A strip of at most kGroupVecs registers per
/// row is short enough that one row's add chains, not the FP ports, bound
/// it, so kGroupRows rows advance side by side.
constexpr std::size_t kGroupRows = 4;
constexpr std::size_t kGroupVecs = 2;

/// A register count known at compile time.
template <std::size_t kV>
struct VecCount {
  static constexpr std::size_t kValue = kV;
};

/// f(VecCount<vecs>{}) for a runtime vecs in [1, kMax]: the one dispatch
/// from a strip's width to its compile-time register count.
template <std::size_t kMax, std::size_t kV = 1, class F>
auto WithVecs(std::size_t vecs, F&& f) {
  if constexpr (kV < kMax) {
    if (vecs != kV) return WithVecs<kMax, kV + 1>(vecs, f);
  }
  return f(VecCount<kV>{});
}

/// Lane sum in fixed ascending-lane order l0 + l1 + … .
template <class T>
double SumLanes(typename T::Vec v) {
  alignas(64) double t[T::kLanes];
  T::Store(t, v);
  double s = t[0];
  for (std::size_t l = 1; l < T::kLanes; ++l) s += t[l];
  return s;
}

// ---- Element-parallel kernels: one unfused op per element ------------------

/// y[i] = op(y[i], x[i]) register by register, the tail through a mask.
template <class T, class Op>
void Map(double* y, const double* x, std::size_t n, Op op) {
  std::size_t i = 0;
  for (; i + T::kLanes <= n; i += T::kLanes) {
    T::Store(y + i, op(T::Load(y + i), T::Load(x + i)));
  }
  if (i < n) {
    const typename T::Mask m = T::Tail(n - i);
    T::StoreTail(y + i, m, op(T::LoadTail(y + i, m), T::LoadTail(x + i, m)));
  }
}

template <class T>
void Axpy(double a, const double* x, double* y, std::size_t n) {
  using Vec = typename T::Vec;
  const Vec av = T::Set1(a);
  Map<T>(y, x, n, [av](Vec yv, Vec xv) { return T::Add(yv, T::Mul(av, xv)); });
}

template <class T>
void Add(double* y, const double* x, std::size_t n) {
  using Vec = typename T::Vec;
  Map<T>(y, x, n, [](Vec yv, Vec xv) { return T::Add(yv, xv); });
}

template <class T>
void Sub(double* y, const double* x, std::size_t n) {
  using Vec = typename T::Vec;
  Map<T>(y, x, n, [](Vec yv, Vec xv) { return T::Sub(yv, xv); });
}

template <class T>
void Scale(double* y, double s, std::size_t n) {
  using Vec = typename T::Vec;
  const Vec sv = T::Set1(s);
  Map<T>(y, y, n, [sv](Vec yv, Vec) { return T::Mul(yv, sv); });
}

// ---- Dots: the table's lane accumulators, then its epilogue ----------------

template <class T>
double Dot(const double* a, const double* b, std::size_t n) {
  return T::DotTail(SumLanes<T>(T::DotLanes(a, b, n)), a, b, n);
}

/// kLanes dots at a time: their lane accumulators summed side by side by
/// SumLanesN, then the table's epilogue lane-wise — Dot's exact chain.
template <class T>
void DotRows(const double* a, const double* b, std::size_t ldb,
             const std::size_t* idx, std::size_t count, std::size_t n,
             double* out) {
  constexpr std::size_t kLanes = T::kLanes;
  std::size_t t = 0;
  for (; t + kLanes <= count; t += kLanes) {
    const double* r[kLanes];
    typename T::Vec v[kLanes];
    for (std::size_t q = 0; q < kLanes; ++q) {
      r[q] = b + (idx != nullptr ? idx[t + q] : t + q) * ldb;
      v[q] = T::DotLanes(a, r[q], n);
    }
    T::Store(out + t, T::DotTails(T::SumLanesN(v), a, r, n));
  }
  for (; t < count; ++t) {
    out[t] = Dot<T>(a, b + (idx != nullptr ? idx[t] : t) * ldb, n);
  }
}

// ---- Packed GEMM -----------------------------------------------------------

/// Packs B into ceil(jlen/kNr) column panels of klen x kNr, zero-padded.
template <std::size_t kNr>
void PackB(const double* b, std::size_t ldb, std::size_t klen,
           std::size_t jlen, double* pack) {
  for (std::size_t p = 0; p * kNr < jlen; ++p) {
    const std::size_t j0 = p * kNr;
    const std::size_t w = jlen - j0 < kNr ? jlen - j0 : kNr;
    double* dst = pack + p * klen * kNr;
    for (std::size_t l = 0; l < klen; ++l) {
      const double* bl = b + l * ldb + j0;
      for (std::size_t j = 0; j < w; ++j) dst[j] = bl[j];
      for (std::size_t j = w; j < kNr; ++j) dst[j] = 0.0;
      dst += kNr;
    }
  }
}

/// Packs A into ceil(mrows/kMr) row micro-panels of klen x kMr, the kMr
/// row values interleaved per reduction step, zero-padded.
template <std::size_t kMr>
void PackA(const double* a, std::size_t lda, std::size_t mrows,
           std::size_t klen, double* pack) {
  for (std::size_t p = 0; p * kMr < mrows; ++p) {
    const std::size_t i0 = p * kMr;
    const std::size_t h = mrows - i0 < kMr ? mrows - i0 : kMr;
    double* dst = pack + p * klen * kMr;
    for (std::size_t l = 0; l < klen; ++l) {
      for (std::size_t r = 0; r < h; ++r) dst[r] = a[(i0 + r) * lda + l];
      for (std::size_t r = h; r < kMr; ++r) dst[r] = 0.0;
      dst += kMr;
    }
  }
}

/// C row segment += accumulator pair, touching only the w real columns of
/// a possibly short trailing panel.
template <class T>
void AddTileRow(double* c, typename T::Vec v0, typename T::Vec v1,
                std::size_t w) {
  constexpr std::size_t kLanes = T::kLanes;
  if (w == 2 * kLanes) {
    T::Store(c, T::Add(T::Load(c), v0));
    T::Store(c + kLanes, T::Add(T::Load(c + kLanes), v1));
    return;
  }
  const typename T::Mask m0 = T::Tail(w < kLanes ? w : kLanes);
  T::StoreTail(c, m0, T::Add(T::LoadTail(c, m0), v0));
  if (w > kLanes) {
    const typename T::Mask m1 = T::Tail(w - kLanes);
    T::StoreTail(c + kLanes, m1, T::Add(T::LoadTail(c + kLanes, m1), v1));
  }
}

/// kMr x 2·kLanes register tile over one packed A micro-panel and one
/// packed B column panel: two B loads and kMr broadcast-FMA pairs per
/// reduction step, each accumulator one FMA chain over klen. `h` rows of
/// C are written.
template <class T>
void MicroTile(const double* pa, const double* pb, std::size_t klen,
               double* c, std::size_t ldc, std::size_t h, std::size_t w) {
  using Vec = typename T::Vec;
  constexpr std::size_t kLanes = T::kLanes, kMr = T::kMr;
  Vec x0[kMr], x1[kMr];
  for (std::size_t r = 0; r < kMr; ++r) x0[r] = x1[r] = T::Zero();
  for (std::size_t l = 0; l < klen; ++l) {
    const Vec b0 = T::Load(pb);
    const Vec b1 = T::Load(pb + kLanes);
    pb += 2 * kLanes;
    for (std::size_t r = 0; r < kMr; ++r) {
      const Vec av = T::Set1(pa[r]);
      x0[r] = T::Fmadd(av, b0, x0[r]);
      x1[r] = T::Fmadd(av, b1, x1[r]);
    }
    pa += kMr;
  }
  for (std::size_t r = 0; r < h; ++r) {
    AddTileRow<T>(c + r * ldc, x0[r], x1[r], w);
  }
}

template <class T>
void GemmPacked(const double* packa, const double* packb, std::size_t mrows,
                std::size_t klen, std::size_t jlen, double* c,
                std::size_t ldc) {
  constexpr std::size_t kMr = T::kMr, kNr = 2 * T::kLanes;
  for (std::size_t p = 0; p * kNr < jlen; ++p) {
    const std::size_t j0 = p * kNr;
    const std::size_t w = jlen - j0 < kNr ? jlen - j0 : kNr;
    const double* pb = packb + p * klen * kNr;
    for (std::size_t q = 0; q * kMr < mrows; ++q) {
      const std::size_t i0 = q * kMr;
      const std::size_t h = mrows - i0 < kMr ? mrows - i0 : kMr;
      MicroTile<T>(packa + q * klen * kMr, pb, klen, c + i0 * ldc + j0, ldc,
                   h, w);
    }
  }
}

// ---- CSR row strips --------------------------------------------------------

/// acc + (v·x): the unfused multiply and add Axpy performs.
template <class T>
typename T::Vec MulAdd(typename T::Vec acc, typename T::Vec v,
                       typename T::Vec x) {
  return T::Add(acc, T::Mul(v, x));
}

/// Mask of the last register of a `w`-column strip of `vecs` registers.
template <class T>
typename T::Mask StripTail(std::size_t w, std::size_t vecs) {
  return T::Tail(w - (vecs - 1) * T::kLanes);
}

/// Loads the kVecs registers of a strip, the last through `tail`.
template <class T, std::size_t kVecs>
void LoadStrip(const double* p, typename T::Mask tail, typename T::Vec* x) {
  for (std::size_t q = 0; q + 1 < kVecs; ++q) x[q] = T::Load(p + q * T::kLanes);
  x[kVecs - 1] = T::LoadTail(p + (kVecs - 1) * T::kLanes, tail);
}

/// Stores the kVecs registers of a strip, the last through `tail`.
template <class T, std::size_t kVecs>
void StoreStrip(double* p, typename T::Mask tail, const typename T::Vec* x) {
  for (std::size_t q = 0; q + 1 < kVecs; ++q) T::Store(p + q * T::kLanes, x[q]);
  T::StoreTail(p + (kVecs - 1) * T::kLanes, tail, x[kVecs - 1]);
}

/// One row strip of kVecs registers, the last covering the lanes in
/// `tail`: acc = +0.0, then acc + (v·B[idx[k]]) per nonzero — the unfused
/// multiply and add Axpy performs, in the same order.
template <class T, std::size_t kVecs>
void SpmmStrip(const std::size_t* idx, const double* vals, std::size_t kb,
               std::size_t ke, const double* b, std::size_t ldb, double* c,
               typename T::Mask tail) {
  using Vec = typename T::Vec;
  Vec acc[kVecs];
  for (std::size_t q = 0; q < kVecs; ++q) acc[q] = T::Zero();
  for (std::size_t k = kb; k < ke; ++k) {
    const Vec v = T::Set1(vals[k]);
    Vec x[kVecs];
    LoadStrip<T, kVecs>(b + idx[k] * ldb, tail, x);
    for (std::size_t q = 0; q < kVecs; ++q) acc[q] = MulAdd<T>(acc[q], v, x[q]);
  }
  StoreStrip<T, kVecs>(c, tail, acc);
}

/// The accumulators of one narrow row strip (kVecs <= 2 registers; hi
/// is unused when kVecs == 1). Four of them live in named variables so
/// that they stay in registers.
template <class T>
struct NarrowAcc {
  typename T::Vec lo = T::Zero();
  typename T::Vec hi = T::Zero();
};

/// One nonzero of a narrow strip: acc + (v·x) on each register.
template <class T, std::size_t kVecs>
void NarrowStep(NarrowAcc<T>& acc, double v, const double* bk,
                typename T::Mask tail) {
  const typename T::Vec vv = T::Set1(v);
  if constexpr (kVecs == 1) {
    acc.lo = MulAdd<T>(acc.lo, vv, T::LoadTail(bk, tail));
  } else {
    acc.lo = MulAdd<T>(acc.lo, vv, T::Load(bk));
    acc.hi = MulAdd<T>(acc.hi, vv, T::LoadTail(bk + T::kLanes, tail));
  }
}

template <class T, std::size_t kVecs>
void StoreNarrow(double* p, typename T::Mask tail, const NarrowAcc<T>& x) {
  if constexpr (kVecs == 1) {
    T::StoreTail(p, tail, x.lo);
  } else {
    T::Store(p, x.lo);
    T::StoreTail(p + T::kLanes, tail, x.hi);
  }
}

/// SpmmStrip on rows i .. i+3 at once (kVecs <= kGroupVecs): each row
/// keeps its own accumulators and its own chain, so each row is exactly
/// SpmmStrip's. The rows step together over their common length, then
/// each finishes alone.
template <class T, std::size_t kVecs>
void SpmmStrip4(const std::size_t* offsets, const std::size_t* idx,
                const double* vals, std::size_t i, const double* b,
                std::size_t ldb, double* c, std::size_t ldc,
                typename T::Mask tail) {
  std::size_t kb[kGroupRows + 1];  // Row r spans [kb[r], kb[r + 1]).
  for (std::size_t r = 0; r <= kGroupRows; ++r) kb[r] = offsets[i + r];
  std::size_t common = kb[1] - kb[0];  // The shortest row's length.
  for (std::size_t r = 1; r < kGroupRows; ++r) {
    const std::size_t len = kb[r + 1] - kb[r];
    common = len < common ? len : common;
  }
  NarrowAcc<T> a0, a1, a2, a3;
  auto step = [&](NarrowAcc<T>& acc, std::size_t k) {
    NarrowStep<T, kVecs>(acc, vals[k], b + idx[k] * ldb, tail);
  };
  for (std::size_t t = 0; t < common; ++t) {
    step(a0, kb[0] + t);
    step(a1, kb[1] + t);
    step(a2, kb[2] + t);
    step(a3, kb[3] + t);
  }
  for (std::size_t k = kb[0] + common; k < kb[1]; ++k) step(a0, k);
  for (std::size_t k = kb[1] + common; k < kb[2]; ++k) step(a1, k);
  for (std::size_t k = kb[2] + common; k < kb[3]; ++k) step(a2, k);
  for (std::size_t k = kb[3] + common; k < kb[4]; ++k) step(a3, k);
  StoreNarrow<T, kVecs>(c + i * ldc, tail, a0);
  StoreNarrow<T, kVecs>(c + (i + 1) * ldc, tail, a1);
  StoreNarrow<T, kVecs>(c + (i + 2) * ldc, tail, a2);
  StoreNarrow<T, kVecs>(c + (i + 3) * ldc, tail, a3);
}

template <class T>
void SpmmRows(const std::size_t* offsets, const std::size_t* idx,
              const double* vals, std::size_t r0, std::size_t r1,
              const double* b, std::size_t ldb, std::size_t n, double* c,
              std::size_t ldc) {
  constexpr std::size_t kLanes = T::kLanes, kStrip = T::kStripVecs * kLanes;
  std::size_t i = r0;
  if (n > 0 && n <= kGroupVecs * kLanes) {
    // One narrow strip: rows in groups of four.
    const std::size_t vecs = (n + kLanes - 1) / kLanes;
    const typename T::Mask tail = StripTail<T>(n, vecs);
    for (; i + kGroupRows <= r1; i += kGroupRows) {
      WithVecs<kGroupVecs>(vecs, [&](auto v) {
        SpmmStrip4<T, decltype(v)::kValue>(offsets, idx, vals, i, b, ldb, c,
                                           ldc, tail);
      });
    }
  }
  for (; i < r1; ++i) {
    const std::size_t kb = offsets[i], ke = offsets[i + 1];
    for (std::size_t j0 = 0; j0 < n; j0 += kStrip) {
      const std::size_t w = n - j0 < kStrip ? n - j0 : kStrip;
      const std::size_t vecs = (w + kLanes - 1) / kLanes;
      const typename T::Mask tail = StripTail<T>(w, vecs);
      WithVecs<T::kStripVecs>(vecs, [&](auto v) {
        SpmmStrip<T, decltype(v)::kValue>(idx, vals, kb, ke, b + j0, ldb,
                                          c + i * ldc + j0, tail);
      });
    }
  }
}

/// The sign-split step of one nonzero: a negative entry adds (−v)·x to
/// `an`, a positive one v·x to `ap`; zero and NaN entries add nothing.
template <class T, std::size_t kVecs>
void SignStep(double v, const typename T::Vec* x, typename T::Vec* an,
              typename T::Vec* ap) {
  if (v < 0.0) {
    const typename T::Vec w = T::Set1(-v);
    for (std::size_t q = 0; q < kVecs; ++q) an[q] = MulAdd<T>(an[q], w, x[q]);
  } else if (v > 0.0) {
    const typename T::Vec w = T::Set1(v);
    for (std::size_t q = 0; q < kVecs; ++q) ap[q] = MulAdd<T>(ap[q], w, x[q]);
  }
}

/// SpmmStrip with one accumulator set per sign.
template <class T, std::size_t kVecs>
void SpmmSignStrip(const std::size_t* idx, const double* vals, std::size_t kb,
                   std::size_t ke, const double* b, std::size_t ldb,
                   double* neg, double* pos, typename T::Mask tail) {
  using Vec = typename T::Vec;
  Vec an[kVecs], ap[kVecs];
  for (std::size_t q = 0; q < kVecs; ++q) an[q] = ap[q] = T::Zero();
  for (std::size_t k = kb; k < ke; ++k) {
    Vec x[kVecs];
    LoadStrip<T, kVecs>(b + idx[k] * ldb, tail, x);
    SignStep<T, kVecs>(vals[k], x, an, ap);
  }
  StoreStrip<T, kVecs>(neg, tail, an);
  StoreStrip<T, kVecs>(pos, tail, ap);
}

template <class T>
void SpmmSignRows(const std::size_t* offsets, const std::size_t* idx,
                  const double* vals, std::size_t r0, std::size_t r1,
                  const double* b, std::size_t ldb, std::size_t n,
                  double* neg, double* pos, std::size_t ldc) {
  constexpr std::size_t kLanes = T::kLanes;
  constexpr std::size_t kSignStrip = T::kSignStripVecs * kLanes;
  for (std::size_t i = r0; i < r1; ++i) {
    const std::size_t kb = offsets[i], ke = offsets[i + 1];
    for (std::size_t j0 = 0; j0 < n; j0 += kSignStrip) {
      const std::size_t w = n - j0 < kSignStrip ? n - j0 : kSignStrip;
      const std::size_t vecs = (w + kLanes - 1) / kLanes;
      const typename T::Mask tail = StripTail<T>(w, vecs);
      WithVecs<T::kSignStripVecs>(vecs, [&](auto v) {
        SpmmSignStrip<T, decltype(v)::kValue>(idx, vals, kb, ke, b + j0, ldb,
                                              neg + i * ldc + j0,
                                              pos + i * ldc + j0, tail);
      });
    }
  }
}

// ---- The one-pass Laplacian walk ---------------------------------------------

/// One Laplacian row of width n <= kSignStripVecs·kLanes (kVecs
/// registers) in one pass over its nonzeros. Each neighbour row x =
/// B[idx[k]] is loaded once and feeds both SignStep and the table's dot
/// lane accumulators against the row's own B[i], by the table's chunk
/// rule (T::DotChunk; kRagged is T::Ragged(n)). kLanes lane vectors at a
/// time are summed by SumLanesN and finished by DotTails, the rest by
/// SumLanes and DotTail; each dot then enters `acc` as acc + vals[k]·dot,
/// in ascending k. The sign sums are stored times `scale`, as Scale would.
template <class T, std::size_t kVecs, bool kRagged>
double SandwichSignStrip(const std::size_t* idx, const double* vals,
                         std::size_t kb, std::size_t ke, const double* b,
                         std::size_t ldb, const double* bi, std::size_t n,
                         double scale, double* neg, double* pos,
                         typename T::Mask tail, double acc) {
  using Vec = typename T::Vec;
  constexpr std::size_t kLanes = T::kLanes;
  Vec gi[kVecs], an[kVecs], ap[kVecs];
  LoadStrip<T, kVecs>(bi, tail, gi);
  for (std::size_t q = 0; q < kVecs; ++q) an[q] = ap[q] = T::Zero();
  Vec lanes[kLanes];
  const double* rows[kLanes];
  std::size_t pending = 0;
  for (std::size_t k = kb; k < ke; ++k) {
    const double* bk = b + idx[k] * ldb;
    Vec x[kVecs];
    LoadStrip<T, kVecs>(bk, tail, x);
    lanes[pending] = T::template DotChunk<kVecs, kRagged>(gi, x);
    rows[pending] = bk;
    if (++pending == kLanes) {
      alignas(64) double dots[kLanes];
      T::Store(dots, T::DotTails(T::SumLanesN(lanes), bi, rows, n));
      for (std::size_t t = 0; t < kLanes; ++t) {
        acc += vals[k + 1 - kLanes + t] * dots[t];
      }
      pending = 0;
    }
    SignStep<T, kVecs>(vals[k], x, an, ap);
  }
  for (std::size_t t = 0; t < pending; ++t) {
    acc += vals[ke - pending + t] *
           T::DotTail(SumLanes<T>(lanes[t]), bi, rows[t], n);
  }
  const Vec sv = T::Set1(scale);
  for (std::size_t q = 0; q < kVecs; ++q) {
    an[q] = T::Mul(an[q], sv);
    ap[q] = T::Mul(ap[q], sv);
  }
  StoreStrip<T, kVecs>(neg, tail, an);
  StoreStrip<T, kVecs>(pos, tail, ap);
  return acc;
}

/// Rows [r0, r1) through SandwichSignStrip, one acc chain across them.
template <class T, std::size_t kVecs, bool kRagged>
double SandwichSignStripRows(const std::size_t* offsets,
                             const std::size_t* idx, const double* vals,
                             std::size_t r0, std::size_t r1, const double* b,
                             std::size_t ldb, std::size_t n, double scale,
                             double* neg, double* pos, std::size_t ldc,
                             typename T::Mask tail) {
  double acc = 0.0;
  for (std::size_t i = r0; i < r1; ++i) {
    acc = SandwichSignStrip<T, kVecs, kRagged>(
        idx, vals, offsets[i], offsets[i + 1], b, ldb, b + i * ldb, n, scale,
        neg + i * ldc, pos + i * ldc, tail, acc);
  }
  return acc;
}

template <class T>
double SandwichSignRows(const std::size_t* offsets, const std::size_t* idx,
                        const double* vals, std::size_t r0, std::size_t r1,
                        const double* b, std::size_t ldb, std::size_t n,
                        double scale, double* neg, double* pos,
                        std::size_t ldc) {
  constexpr std::size_t kLanes = T::kLanes;
  if (n == 0 || n > T::kSignStripVecs * kLanes) {
    // Rows wider than one strip: the dots, then the strips, in two passes.
    double acc = 0.0;
    double dots[kLanes];
    for (std::size_t i = r0; i < r1; ++i) {
      for (std::size_t k = offsets[i]; k < offsets[i + 1]; k += kLanes) {
        const std::size_t len =
            offsets[i + 1] - k < kLanes ? offsets[i + 1] - k : kLanes;
        DotRows<T>(b + i * ldb, b, ldb, idx + k, len, n, dots);
        for (std::size_t t = 0; t < len; ++t) acc += vals[k + t] * dots[t];
      }
    }
    SpmmSignRows<T>(offsets, idx, vals, r0, r1, b, ldb, n, neg, pos, ldc);
    for (std::size_t i = r0; i < r1; ++i) {
      Scale<T>(neg + i * ldc, scale, n);
      Scale<T>(pos + i * ldc, scale, n);
    }
    return acc;
  }
  const std::size_t vecs = (n + kLanes - 1) / kLanes;
  const typename T::Mask tail = StripTail<T>(n, vecs);
  return WithVecs<T::kSignStripVecs>(vecs, [&](auto v) {
    constexpr std::size_t kVecs = decltype(v)::kValue;
    auto strip_rows = T::Ragged(n) ? SandwichSignStripRows<T, kVecs, true>
                                   : SandwichSignStripRows<T, kVecs, false>;
    return strip_rows(offsets, idx, vals, r0, r1, b, ldb, n, scale, neg, pos,
                      ldc, tail);
  });
}

// ---- The SPG direction row -------------------------------------------------

/// kLanes entries per step; the tail reads through a mask (dead lanes load
/// as zero and are masked out of the probe and the compaction). The
/// gradient, projection and step are the scalar table's unfused
/// expressions lane by lane; Max(a, b) is a > b ? a : b, so Max(0, p) is
/// (p < 0 ? 0 : p) and the probe update is the scalar one, NaN and ±0
/// included. The diagonal lane is replaced before the probe and the
/// compaction. T::Compact moves a block's nonzeros of d (NaN included) to
/// the front of a register, in ascending j, and stores it whole: a full
/// block starts at j >= count, so the store stays inside [0, n); the
/// tail's store is masked to its count.
template <class T>
std::size_t SpgDirectionRow(const double* w, const double* wq,
                            const double* q, const double* cs,
                            double two_gamma, double step,
                            std::size_t diag, std::size_t n, double* vals,
                            std::size_t* idx, double* probe) {
  using Vec = typename T::Vec;
  constexpr std::size_t kLanes = T::kLanes;
  const Vec zero = T::Zero();
  const Vec two = T::Set1(2.0);
  const Vec tg = T::Set1(two_gamma);
  const Vec nstep = T::Set1(-step);
  Vec pr = T::Set1(*probe);
  std::size_t count = 0;
  for (std::size_t j = 0; j < n; j += kLanes) {
    const bool full = n - j >= kLanes;
    const typename T::Mask live = T::Tail(full ? kLanes : n - j);
    const Vec wv = T::LoadTail(w + j, live);
    const Vec g = T::Add(
        T::Mul(tg, T::Sub(T::LoadTail(wq + j, live), T::LoadTail(q + j, live))),
        T::Mul(two, T::LoadTail(cs + j, live)));
    Vec r = T::Abs(T::Sub(T::Max(zero, T::Sub(wv, g)), wv));
    Vec d = T::Sub(T::Max(zero, T::Add(wv, T::Mul(nstep, g))), wv);
    if (diag - j < kLanes) {
      const Vec dd = T::Sub(zero, wv);
      r = T::Blend(r, T::Abs(dd), diag - j);
      d = T::Blend(d, dd, diag - j);
    }
    pr = T::ProbeMax(pr, r, live);
    count += T::Compact(d, live, full, j, vals + count, idx + count);
  }
  alignas(64) double lanes[kLanes];
  T::Store(lanes, pr);
  double p = *probe;
  for (double l : lanes) p = l > p ? l : p;
  *probe = p;
  return count;
}

// ---- The table -------------------------------------------------------------

template <class T>
constexpr KernelTable MakeTable(const char* name, Isa isa) {
  return {name,           isa,
          T::kMr,         2 * T::kLanes,
          Axpy<T>,        Dot<T>,
          DotRows<T>,     T::DotSparse,
          T::SquaredDistance,
          Add<T>,         Sub<T>,
          Scale<T>,       PackB<2 * T::kLanes>,
          PackA<T::kMr>,  GemmPacked<T>,
          SpmmRows<T>,    SpmmSignRows<T>,
          SandwichSignRows<T>,
          SpgDirectionRow<T>};
}

#endif  // RHCHME_LA_KERNELS_BODY_H_
