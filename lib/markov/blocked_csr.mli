(** Blocked CSR transition-matrix store with streaming builds, optional
    disk spill, and one sequential product kernel.

    The matrix is cut into fixed row-range blocks, each a compact CSR
    shard.  Shards either stay in memory or append to a disk-backed
    block file (format ["repro.blocked-csr/1"]) as soon as their row
    range completes, so the builder's working set is one block and
    builds larger than RAM finish.  Rows are fed one at a time in index
    order — exactly what a BFS enumeration produces, since state [i]'s
    row is fully determined when [i] is dequeued.

    Kernels compute [dst ← src · P] by a row-major scatter over the
    blocks, optionally fused with an L1 statistic (power-iteration
    residual, TV distance to π).  Each product runs on the calling
    domain; callers parallelise across independent vectors instead (see
    {!Exact}). *)

type t

val rows : t -> int
val cols : t -> int
val nnz : t -> int

val block_rows : t -> int
(** Rows per block (the last block may be shorter). *)

val block_count : t -> int

val path : t -> string option
(** The backing block file, when the matrix was spilled or opened from
    disk. *)

val in_memory : t -> bool
(** Whether every shard is resident.  An in-memory matrix and its
    {!kernel} are read-only in use, so several domains may run products
    on them at once.  Disk-backed matrices stream through one shared
    channel and must be read from one domain at a time. *)

val close : t -> unit
(** Close the backing file, if any.  The matrix must not be used
    afterwards unless it is fully in memory. *)

(** {1 Streaming builds} *)

type builder

val builder : ?block_rows:int -> ?spill:string -> unit -> builder
(** A fresh builder (default [block_rows = 4096]).  With [~spill:path],
    each completed block is appended to [path] and dropped from memory;
    the file is finalized (footer + trailer) by {!finish}.
    @raise Invalid_argument if [block_rows < 1]. *)

val add_row : builder -> (int * float) list -> unit
(** Append the next row.  Entries are sorted by column with {!sort_row},
    duplicate columns merged, exact zeros dropped, so {!nnz} counts
    structural non-zeros only.  A merged value is the left-to-right sum,
    from [0.], of its duplicates in the order {!sort_row} leaves them:
    that order is part of the matrix bits, and this module owns it.
    Column bounds are checked at {!finish}, when the final column count
    is known.
    @raise Invalid_argument on a negative column index. *)

val sort_row : int array -> float array -> int -> unit
(** [sort_row keys vals len] sorts the first [len] entries of the
    parallel arrays by key, ascending, moving each value with its key.
    It is the stdlib [Array.sort] heap sort, comparison for comparison,
    so it leaves exactly the permutation [Array.sort] leaves on the
    [(key, value)] pairs compared by key — including the relative order
    of equal keys, which a stable sort would not reproduce.  The row
    merge of {!add_row} relies on it.
    @raise Invalid_argument if [len] is negative or exceeds either
    array's length. *)

val finish : builder -> cols:int -> t
(** Seal the matrix with [cols] columns.
    @raise Invalid_argument if no rows were added, or if any recorded
    column index is [>= cols]. *)

val open_file : string -> t
(** Reopen a spilled block file.  Validates the trailer magic, so a
    file from a killed build (no trailer yet) is rejected.
    @raise Failure on a truncated or corrupt file.
    @raise Sys_error if the file cannot be read. *)

(** {1 Queries} *)

val row_sums : t -> float array
val is_stochastic : ?tol:float -> t -> bool

(** {1 Kernels} *)

type kernel
(** A matrix prepared for repeated products: the matrix and its
    fixed-width column-chunk partition, which fixes the summation order
    of the fused statistics. *)

val kernel : t -> kernel
(** Prepare [t] for repeated products.  Disk-backed matrices stream one
    shard at a time. *)

val spmv : kernel -> src:float array -> dst:float array -> unit
(** [dst ← src · P], each [dst] entry accumulated over rows in
    increasing index order.
    @raise Invalid_argument on dimension mismatch. *)

val step_l1 : kernel -> src:float array -> dst:float array -> float
(** Fused power-iteration step: [dst ← src · P], returning
    [‖dst − src‖₁].  The statistic is accumulated per fixed 1024-column
    chunk and the chunk partials are summed in chunk order. *)

val step_tv :
  kernel -> pi:float array -> src:float array -> dst:float array -> float
(** Fused evolution step: [dst ← src · P], returning
    [½ ‖dst − pi‖₁] — the TV distance driving mixing searches. *)

val step_tv_multi :
  kernel ->
  pi:float array ->
  srcs:float array array ->
  dsts:float array array ->
  float array
(** Batched fused evolution step: [dsts.(b) ← srcs.(b) · P] for every
    vector of the batch in {e one} traversal of the matrix, returning
    the per-vector TV distances [½ ‖dsts.(b) − pi‖₁].  The matrix —
    indices plus values — dominates the memory traffic of a fused step,
    so a batch of B vectors costs close to one single-vector product
    instead of B; disk-backed matrices are streamed once per batch
    instead of once per vector.  Every [dsts.(b)] and every returned
    statistic is bit-identical to the corresponding single-vector
    {!step_tv} call (same contribution skips, same per-entry summation
    order, same chunk-order reduction).  See
    [DESIGN.md], "The representation layer".
    @raise Invalid_argument if [srcs] and [dsts] differ in length or any
    vector has the wrong dimension. *)
