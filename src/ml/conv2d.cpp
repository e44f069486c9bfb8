#include "ml/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "linalg/kernels.hpp"

namespace bcl::ml {

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_size, std::size_t padding, Mode mode)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel_size),
      pad_(padding),
      mode_(mode),
      weight_(out_channels * in_channels * kernel_size * kernel_size, 0.0),
      bias_(out_channels, 0.0),
      grad_weight_(weight_.size(), 0.0),
      grad_bias_(out_channels, 0.0) {
  if (in_c_ == 0 || out_c_ == 0 || k_ == 0) {
    throw std::invalid_argument("Conv2D: zero-sized layer");
  }
}

void Conv2D::initialize(Rng& rng) {
  // He-style fan-in scaling suits the following ReLU.
  const double fan_in = static_cast<double>(in_c_ * k_ * k_);
  const double limit = std::sqrt(6.0 / fan_in);
  for (double& w : weight_) w = rng.uniform(-limit, limit);
  for (double& b : bias_) b = 0.0;
}

Tensor Conv2D::forward(const Tensor& input) {
  Tensor output = infer(input);
  cached_input_ = input;
  return output;
}

Tensor Conv2D::infer(const Tensor& input) {
  if (input.rank() != 4 || input.dim(1) != in_c_) {
    throw std::invalid_argument("Conv2D::forward: expected [N, C_in, H, W]");
  }
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  if (h + 2 * pad_ < k_ || w + 2 * pad_ < k_) {
    throw std::invalid_argument("Conv2D::forward: kernel larger than input");
  }
  return mode_ == Mode::Im2col ? forward_im2col(input)
                               : forward_direct(input);
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  if (cached_input_.rank() != 4) {
    throw std::logic_error("Conv2D::backward: no matching forward pass");
  }
  const std::size_t batch = cached_input_.dim(0);
  const std::size_t h = cached_input_.dim(2);
  const std::size_t w = cached_input_.dim(3);
  const std::size_t out_h = h + 2 * pad_ - k_ + 1;
  const std::size_t out_w = w + 2 * pad_ - k_ + 1;
  if (grad_output.rank() != 4 || grad_output.dim(0) != batch ||
      grad_output.dim(1) != out_c_ || grad_output.dim(2) != out_h ||
      grad_output.dim(3) != out_w) {
    throw std::invalid_argument("Conv2D::backward: grad shape mismatch");
  }
  return mode_ == Mode::Im2col ? backward_im2col(grad_output)
                               : backward_direct(grad_output);
}

// --- im2col path -----------------------------------------------------------
//
// Forward lowers each sample to a patch matrix P [npos x ckk] (row p =
// output position (oh, ow), column c = (ic, kh, kw), zero-filled where the
// receptive field leaves the padded input) and computes the whole sample as
// one gemm: out = bias + W * P^T with W [out_c x ckk].  The gemm accumulates
// each output entry sequentially over the patch in the same (ic, kh, kw)
// order as the direct loop nest, starting from the bias, so the result is
// bitwise identical to Direct mode.
//
// Backward rebuilds the patches transposed (Pt [ckk x npos]) and reuses the
// same kernel for both products:
//   grad_W   += GY * Pt^T            (GY [out_c x npos])
//   grad_P    = GY^T * W             (via transposes, then col2im scatter)

Tensor Conv2D::forward_im2col(const Tensor& input) {
  const std::size_t batch = input.dim(0);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t out_h = h + 2 * pad_ - k_ + 1;
  const std::size_t out_w = w + 2 * pad_ - k_ + 1;
  const std::size_t npos = out_h * out_w;
  const std::size_t ckk = in_c_ * k_ * k_;

  Tensor output({batch, out_c_, out_h, out_w});
  std::vector<double> patches(npos * ckk);
  for (std::size_t n = 0; n < batch; ++n) {
    // Lower sample n: row p of `patches` is the receptive field at output
    // position p in (ic, kh, kw) order.
    std::fill(patches.begin(), patches.end(), 0.0);
    for (std::size_t oh = 0; oh < out_h; ++oh) {
      for (std::size_t ow = 0; ow < out_w; ++ow) {
        double* patch = patches.data() + (oh * out_w + ow) * ckk;
        for (std::size_t ic = 0; ic < in_c_; ++ic) {
          for (std::size_t kh = 0; kh < k_; ++kh) {
            const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh + kh) -
                                      static_cast<std::ptrdiff_t>(pad_);
            if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kw = 0; kw < k_; ++kw) {
              const std::ptrdiff_t iw = static_cast<std::ptrdiff_t>(ow + kw) -
                                        static_cast<std::ptrdiff_t>(pad_);
              if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(w)) continue;
              patch[(ic * k_ + kh) * k_ + kw] =
                  input.at4(n, ic, static_cast<std::size_t>(ih),
                            static_cast<std::size_t>(iw));
            }
          }
        }
      }
    }
    // Sample slab [out_c x npos] is contiguous in the output tensor.
    double* out = output.data() + n * out_c_ * npos;
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      std::fill(out + oc * npos, out + (oc + 1) * npos, bias_[oc]);
    }
    kernels::matmul_abt(weight_.data(), out_c_, patches.data(), npos, ckk,
                        out, npos);
  }
  return output;
}

Tensor Conv2D::backward_im2col(const Tensor& grad_output) {
  const std::size_t batch = cached_input_.dim(0);
  const std::size_t h = cached_input_.dim(2);
  const std::size_t w = cached_input_.dim(3);
  const std::size_t out_h = h + 2 * pad_ - k_ + 1;
  const std::size_t out_w = w + 2 * pad_ - k_ + 1;
  const std::size_t npos = out_h * out_w;
  const std::size_t ckk = in_c_ * k_ * k_;

  // W^T [ckk x out_c], shared by every sample's grad-input product.
  std::vector<double> weight_t(ckk * out_c_);
  for (std::size_t oc = 0; oc < out_c_; ++oc) {
    for (std::size_t c = 0; c < ckk; ++c) {
      weight_t[c * out_c_ + oc] = weight_[oc * ckk + c];
    }
  }

  Tensor grad_input({batch, in_c_, h, w});
  std::vector<double> patches_t(ckk * npos);  // Pt [ckk x npos]
  std::vector<double> gy_t(npos * out_c_);    // GY^T [npos x out_c]
  std::vector<double> grad_cols(npos * ckk);  // grad of P [npos x ckk]
  for (std::size_t n = 0; n < batch; ++n) {
    const double* gy = grad_output.data() + n * out_c_ * npos;

    // grad_bias[oc] += sum over positions.
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      double s = 0.0;
      const double* row = gy + oc * npos;
      for (std::size_t p = 0; p < npos; ++p) s += row[p];
      grad_bias_[oc] += s;
    }

    // Transposed im2col of sample n: Pt[c][p].
    std::fill(patches_t.begin(), patches_t.end(), 0.0);
    for (std::size_t ic = 0; ic < in_c_; ++ic) {
      for (std::size_t kh = 0; kh < k_; ++kh) {
        for (std::size_t kw = 0; kw < k_; ++kw) {
          double* prow = patches_t.data() + ((ic * k_ + kh) * k_ + kw) * npos;
          for (std::size_t oh = 0; oh < out_h; ++oh) {
            const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh + kh) -
                                      static_cast<std::ptrdiff_t>(pad_);
            if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t ow = 0; ow < out_w; ++ow) {
              const std::ptrdiff_t iw = static_cast<std::ptrdiff_t>(ow + kw) -
                                        static_cast<std::ptrdiff_t>(pad_);
              if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(w)) continue;
              prow[oh * out_w + ow] =
                  cached_input_.at4(n, ic, static_cast<std::size_t>(ih),
                                    static_cast<std::size_t>(iw));
            }
          }
        }
      }
    }

    // grad_W += GY * Pt^T  (accumulates across samples and backward calls).
    kernels::matmul_abt(gy, out_c_, patches_t.data(), ckk, npos,
                        grad_weight_.data(), ckk);

    // grad_P = GY^T * W, then col2im scatter-add into grad_input.
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      for (std::size_t p = 0; p < npos; ++p) {
        gy_t[p * out_c_ + oc] = gy[oc * npos + p];
      }
    }
    std::fill(grad_cols.begin(), grad_cols.end(), 0.0);
    kernels::matmul_abt(gy_t.data(), npos, weight_t.data(), ckk, out_c_,
                        grad_cols.data(), ckk);
    for (std::size_t oh = 0; oh < out_h; ++oh) {
      for (std::size_t ow = 0; ow < out_w; ++ow) {
        const double* col = grad_cols.data() + (oh * out_w + ow) * ckk;
        for (std::size_t ic = 0; ic < in_c_; ++ic) {
          for (std::size_t kh = 0; kh < k_; ++kh) {
            const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh + kh) -
                                      static_cast<std::ptrdiff_t>(pad_);
            if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kw = 0; kw < k_; ++kw) {
              const std::ptrdiff_t iw = static_cast<std::ptrdiff_t>(ow + kw) -
                                        static_cast<std::ptrdiff_t>(pad_);
              if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(w)) continue;
              grad_input.at4(n, ic, static_cast<std::size_t>(ih),
                             static_cast<std::size_t>(iw)) +=
                  col[(ic * k_ + kh) * k_ + kw];
            }
          }
        }
      }
    }
  }
  return grad_input;
}

// --- direct path (reference) ----------------------------------------------

Tensor Conv2D::forward_direct(const Tensor& input) {
  const std::size_t batch = input.dim(0);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t out_h = h + 2 * pad_ - k_ + 1;
  const std::size_t out_w = w + 2 * pad_ - k_ + 1;
  Tensor output({batch, out_c_, out_h, out_w});
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      for (std::size_t oh = 0; oh < out_h; ++oh) {
        for (std::size_t ow = 0; ow < out_w; ++ow) {
          double acc = bias_[oc];
          for (std::size_t ic = 0; ic < in_c_; ++ic) {
            for (std::size_t kh = 0; kh < k_; ++kh) {
              const std::ptrdiff_t ih =
                  static_cast<std::ptrdiff_t>(oh + kh) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kw = 0; kw < k_; ++kw) {
                const std::ptrdiff_t iw =
                    static_cast<std::ptrdiff_t>(ow + kw) -
                    static_cast<std::ptrdiff_t>(pad_);
                if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(w)) continue;
                acc += weight_[((oc * in_c_ + ic) * k_ + kh) * k_ + kw] *
                       input.at4(n, ic, static_cast<std::size_t>(ih),
                                 static_cast<std::size_t>(iw));
              }
            }
          }
          output.at4(n, oc, oh, ow) = acc;
        }
      }
    }
  }
  return output;
}

Tensor Conv2D::backward_direct(const Tensor& grad_output) {
  const std::size_t batch = cached_input_.dim(0);
  const std::size_t h = cached_input_.dim(2);
  const std::size_t w = cached_input_.dim(3);
  const std::size_t out_h = h + 2 * pad_ - k_ + 1;
  const std::size_t out_w = w + 2 * pad_ - k_ + 1;
  Tensor grad_input({batch, in_c_, h, w});
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      for (std::size_t oh = 0; oh < out_h; ++oh) {
        for (std::size_t ow = 0; ow < out_w; ++ow) {
          const double gy = grad_output.at4(n, oc, oh, ow);
          if (gy == 0.0) continue;
          grad_bias_[oc] += gy;
          for (std::size_t ic = 0; ic < in_c_; ++ic) {
            for (std::size_t kh = 0; kh < k_; ++kh) {
              const std::ptrdiff_t ih =
                  static_cast<std::ptrdiff_t>(oh + kh) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kw = 0; kw < k_; ++kw) {
                const std::ptrdiff_t iw =
                    static_cast<std::ptrdiff_t>(ow + kw) -
                    static_cast<std::ptrdiff_t>(pad_);
                if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(w)) continue;
                const std::size_t widx =
                    ((oc * in_c_ + ic) * k_ + kh) * k_ + kw;
                grad_weight_[widx] +=
                    gy * cached_input_.at4(n, ic, static_cast<std::size_t>(ih),
                                           static_cast<std::size_t>(iw));
                grad_input.at4(n, ic, static_cast<std::size_t>(ih),
                               static_cast<std::size_t>(iw)) +=
                    gy * weight_[widx];
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

void Conv2D::read_parameters(double* dst) const {
  std::memcpy(dst, weight_.data(), weight_.size() * sizeof(double));
  std::memcpy(dst + weight_.size(), bias_.data(), bias_.size() * sizeof(double));
}

void Conv2D::write_parameters(const double* src) {
  std::memcpy(weight_.data(), src, weight_.size() * sizeof(double));
  std::memcpy(bias_.data(), src + weight_.size(), bias_.size() * sizeof(double));
}

void Conv2D::read_gradients(double* dst) const {
  std::memcpy(dst, grad_weight_.data(), grad_weight_.size() * sizeof(double));
  std::memcpy(dst + grad_weight_.size(), grad_bias_.data(),
              grad_bias_.size() * sizeof(double));
}

void Conv2D::zero_gradients() {
  std::fill(grad_weight_.begin(), grad_weight_.end(), 0.0);
  std::fill(grad_bias_.begin(), grad_bias_.end(), 0.0);
}

}  // namespace bcl::ml
