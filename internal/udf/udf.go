// Package udf implements the UDF-centric execution path: model inference
// encapsulated as user-defined functions running inside the database, over
// data that never leaves it. A ModelUDF fuses the entire forward pass into
// one UDF (the paper's coarse-grained encapsulation); OperatorUDF wraps a
// single linear-algebra operator, the fine-grained form the unified IR
// schedules individually.
//
// UDF-centric execution is whole-tensor: operators materialise their full
// inputs and outputs, so a UDF whose operator footprint exceeds the engine's
// memory budget fails with memlimit.ErrOOM — the Table 3 behaviour that
// motivates falling back to the relation-centric representation.
package udf

import (
	"fmt"

	"tensorbase/internal/lifecycle"
	"tensorbase/internal/memlimit"
	"tensorbase/internal/nn"
	"tensorbase/internal/tensor"
)

// UDF is a batch tensor function registered with the database.
type UDF interface {
	// Name identifies the UDF in error messages.
	Name() string
	// Apply transforms a batch.
	Apply(in *tensor.Tensor) (*tensor.Tensor, error)
}

// CancelUDF is optionally implemented by UDFs whose execution observes a
// query-cancellation token (the adaptive inference UDF threads it through
// the block-multiply loops). Invoke through ApplyCancel, which falls back
// to plain Apply for UDFs without cancellation support.
type CancelUDF interface {
	UDF
	ApplyCancel(tok *lifecycle.Token, in *tensor.Tensor) (*tensor.Tensor, error)
}

// ApplyCancel applies u to in under tok when u supports cancellation, and
// plainly otherwise.
func ApplyCancel(u UDF, tok *lifecycle.Token, in *tensor.Tensor) (*tensor.Tensor, error) {
	if cu, ok := u.(CancelUDF); ok && tok != nil {
		return cu.ApplyCancel(tok, in)
	}
	return u.Apply(in)
}

// ModelUDF fuses a whole model forward pass into a single UDF. Wrapping the
// int8-resident twin of a model (see nn.QuantizeResident) gives the
// quantized serving UDF: weights stay packed int8, each batch's activations
// quantize per row on entry, and the peak-footprint estimate reflects the
// smaller resident weights.
type ModelUDF struct {
	model  *nn.Model
	budget *memlimit.Budget
}

// NewModelUDF wraps m as one coarse-grained UDF charged against budget
// (nil means unlimited).
func NewModelUDF(m *nn.Model, budget *memlimit.Budget) *ModelUDF {
	if budget == nil {
		budget = memlimit.Unlimited()
	}
	return &ModelUDF{model: m, budget: budget}
}

// Name implements UDF.
func (u *ModelUDF) Name() string { return "model:" + u.model.Name() }

// Model returns the wrapped model.
func (u *ModelUDF) Model() *nn.Model { return u.model }

// Apply implements UDF: it reserves the largest per-operator footprint
// (the paper's m·k + k·n + m·n rule) for the duration of the call. A panic
// inside the forward pass (a bad weight shape, a malformed batch) is
// contained here: it comes back as a *lifecycle.PanicError query error, the
// reservation is released, and the database process survives.
func (u *ModelUDF) Apply(in *tensor.Tensor) (out *tensor.Tensor, err error) {
	batch := in.Dim(0)
	peak, merr := u.model.MaxOpBytes(batch)
	if merr != nil {
		return nil, fmt.Errorf("udf: %s: %w", u.Name(), merr)
	}
	res, rerr := u.budget.TryReserve(peak)
	if rerr != nil {
		return nil, fmt.Errorf("udf: %s batch %d: %w", u.Name(), batch, rerr)
	}
	defer res.Close()
	defer func() {
		if perr := lifecycle.AsError(recover()); perr != nil {
			out, err = nil, fmt.Errorf("udf: %s: %w", u.Name(), perr)
		}
	}()
	return u.model.Forward(in), nil
}

// OperatorUDF wraps a single model operator as a fine-grained UDF.
type OperatorUDF struct {
	layer  nn.Layer
	index  int
	owner  string
	budget *memlimit.Budget
}

// NewOperatorUDF wraps layer (index i of model owner) as a UDF.
func NewOperatorUDF(layer nn.Layer, i int, owner string, budget *memlimit.Budget) *OperatorUDF {
	if budget == nil {
		budget = memlimit.Unlimited()
	}
	return &OperatorUDF{layer: layer, index: i, owner: owner, budget: budget}
}

// Name implements UDF.
func (u *OperatorUDF) Name() string {
	return fmt.Sprintf("op:%s[%d]:%s", u.owner, u.index, u.layer.Name())
}

// Apply implements UDF. Panics in the operator's forward pass are contained
// as in ModelUDF.Apply.
func (u *OperatorUDF) Apply(in *tensor.Tensor) (out *tensor.Tensor, err error) {
	need := u.layer.MemEstimate(in.Shape())
	res, rerr := u.budget.TryReserve(need)
	if rerr != nil {
		return nil, fmt.Errorf("udf: %s: %w", u.Name(), rerr)
	}
	defer res.Close()
	defer func() {
		if perr := lifecycle.AsError(recover()); perr != nil {
			out, err = nil, fmt.Errorf("udf: %s: %w", u.Name(), perr)
		}
	}()
	return u.layer.Forward(in), nil
}
