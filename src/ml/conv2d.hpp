#pragma once
// 2-D convolution layer (stride 1, symmetric zero padding), the workhorse of
// the CifarNet architecture used for the Figure 2b experiment.
//
// Input [N, C_in, H, W], kernel [C_out, C_in, K, K], output
// [N, C_out, H_out, W_out] with H_out = H + 2*pad - K + 1.
//
// Two execution modes share one weight layout:
//  - Im2col (default): patches are lowered to a row-major matrix and the
//    forward/backward products run on the shared register-blocked gemm
//    (kernels::matmul_abt), which replaces the six-deep scalar loop nest
//    with cache-blocked streaming over contiguous buffers.  Because the
//    gemm accumulates each output entry sequentially over the patch in the
//    same (C_in, kh, kw) order the direct loops use, forward outputs are
//    bitwise identical to Direct mode (zero-padding contributes exact
//    +-0.0 terms).
//  - Direct: the original loop nest, kept as the reference implementation
//    the equivalence tests compare against.

#include "ml/layer.hpp"

namespace bcl::ml {

class Conv2D final : public Layer {
 public:
  /// Execution mode; Im2col is the fast default, Direct the reference.
  enum class Mode { Im2col, Direct };

  Conv2D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel_size, std::size_t padding = 0,
         Mode mode = Mode::Im2col);

  std::string name() const override { return "Conv2D"; }
  Tensor forward(const Tensor& input) override;
  Tensor infer(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  std::size_t parameter_count() const override {
    return out_c_ * in_c_ * k_ * k_ + out_c_;
  }
  void read_parameters(double* dst) const override;
  void write_parameters(const double* src) override;
  void read_gradients(double* dst) const override;
  void zero_gradients() override;
  void initialize(Rng& rng) override;

  Mode mode() const { return mode_; }

 private:
  Tensor forward_direct(const Tensor& input);
  Tensor forward_im2col(const Tensor& input);
  Tensor backward_direct(const Tensor& grad_output);
  Tensor backward_im2col(const Tensor& grad_output);

  std::size_t in_c_;
  std::size_t out_c_;
  std::size_t k_;
  std::size_t pad_;
  Mode mode_;
  std::vector<double> weight_;       // [out_c, in_c, k, k]
  std::vector<double> bias_;         // [out_c]
  std::vector<double> grad_weight_;
  std::vector<double> grad_bias_;
  Tensor cached_input_;
};

}  // namespace bcl::ml
