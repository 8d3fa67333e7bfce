type t = {
  mutable ticks : int;
  mutable n_alu : int;
  mutable n_load : int;
  mutable n_store : int;
  mutable n_atomic : int;
  mutable n_fence : int;
  mutable fence_drained : int;
  mutable fence_stall_ticks : int;
  mutable n_reorder : int;
  mutable app_cycles : int;
  mutable n_bitflip : int;
}

let create () =
  { ticks = 0; n_alu = 0; n_load = 0; n_store = 0; n_atomic = 0; n_fence = 0;
    fence_drained = 0; fence_stall_ticks = 0; n_reorder = 0; app_cycles = 0;
    n_bitflip = 0 }

let reset m =
  m.ticks <- 0;
  m.n_alu <- 0;
  m.n_load <- 0;
  m.n_store <- 0;
  m.n_atomic <- 0;
  m.n_fence <- 0;
  m.fence_drained <- 0;
  m.fence_stall_ticks <- 0;
  m.n_reorder <- 0;
  m.app_cycles <- 0;
  m.n_bitflip <- 0

let add acc x =
  acc.ticks <- acc.ticks + x.ticks;
  acc.n_alu <- acc.n_alu + x.n_alu;
  acc.n_load <- acc.n_load + x.n_load;
  acc.n_store <- acc.n_store + x.n_store;
  acc.n_atomic <- acc.n_atomic + x.n_atomic;
  acc.n_fence <- acc.n_fence + x.n_fence;
  acc.fence_drained <- acc.fence_drained + x.fence_drained;
  acc.fence_stall_ticks <- acc.fence_stall_ticks + x.fence_stall_ticks;
  acc.n_reorder <- acc.n_reorder + x.n_reorder;
  acc.app_cycles <- acc.app_cycles + x.app_cycles;
  acc.n_bitflip <- acc.n_bitflip + x.n_bitflip

let launch_overhead = 100

let runtime_cycles ~(chip : Chip.t) m =
  launch_overhead + (m.app_cycles / chip.cost.parallelism)

let energy ~(chip : Chip.t) m =
  let c = chip.cost in
  let dynamic =
    (float_of_int m.n_alu *. c.energy_alu)
    +. (float_of_int (m.n_load + m.n_store) *. c.energy_mem)
    +. (float_of_int m.n_atomic *. c.energy_atomic)
    +. (float_of_int m.n_fence *. c.energy_fence)
  in
  dynamic +. (float_of_int (runtime_cycles ~chip m) *. c.static_power)

let to_assoc m =
  [ ("ticks", m.ticks); ("alu", m.n_alu); ("ld", m.n_load); ("st", m.n_store);
    ("atomic", m.n_atomic); ("fence", m.n_fence); ("drained", m.fence_drained);
    ("stall", m.fence_stall_ticks); ("reorder", m.n_reorder);
    ("app_cycles", m.app_cycles); ("bitflip", m.n_bitflip) ]

let pp ppf m =
  Fmt.pf ppf "%a"
    Fmt.(list ~sep:(any " ") (fun ppf (k, v) -> pf ppf "%s=%d" k v))
    (to_assoc m)
