type op = Read | Write

type req = { id : int; op : op; sector : int; gref : Hcall.gref; bytes : int }
type resp = { r_id : int; ok : bool }

type t = {
  ring : (req, resp) Ring.t;
  key : string;
  mutable front_dom : Hcall.domid option;
  mutable offer_port : Hcall.port option;
  mutable front_port : Hcall.port option;
  mutable back_port : Hcall.port option;
}

(* Slots in the request ring. *)
let ring_size = 32

let create ~index () =
  {
    ring = Ring.create ~capacity:ring_size ();
    key = Printf.sprintf "device/blk/%d" index;
    front_dom = None;
    offer_port = None;
    front_port = None;
    back_port = None;
  }

let ring_cost = 25
